//! Token-level rules: `panic-path` and `unchecked-width-math` per
//! function, and the `alloc-in-hot-path` scan the call-graph pass runs
//! over each hot function.

use syn::{Delimiter, Span, TokenTree};

use crate::engine::{self, FileCx, FnInfo};
use crate::{Finding, Rule};

/// Raw finding before file/escape bookkeeping: (span, rule, message).
pub type RawFinding = (Span, Rule, String);

/// Identifiers that are Rust keywords possibly preceding a bracket group
/// in non-index position (`&mut [T]`, `as` casts, control flow).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "ref", "dyn", "in", "as", "return", "break", "else", "match", "if", "while", "loop",
    "move", "impl", "where", "for", "fn", "use", "pub", "let", "const", "static", "type", "enum",
    "struct", "union", "unsafe", "async", "await", "box",
];

/// Macros that unconditionally panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Methods that panic on the error/none path.
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// The `panic-path` rule: unwrap/expect, panicking macros, and hazardous
/// slice indexing (literal or arithmetic indices, range slicing) inside
/// non-test engine functions. Bare-variable indexing (`containers[id]`)
/// is the workspace's by-construction idiom and is not flagged.
pub fn panic_path(fns: &[FnInfo<'_>], out: &mut Vec<RawFinding>) {
    for f in fns {
        if f.in_test {
            continue;
        }
        let Some(body) = &f.item.body else { continue };
        engine::visit_streams(&body.stream, &mut |stream| {
            scan_panic_stream(stream, out);
        });
    }
}

fn scan_panic_stream(stream: &[TokenTree], out: &mut Vec<RawFinding>) {
    for (i, t) in stream.iter().enumerate() {
        match t {
            TokenTree::Ident(id) => {
                // `.unwrap()` / `.expect("…")` method calls.
                if PANIC_METHODS.contains(&id.text.as_str())
                    && engine::is_punct(i.checked_sub(1).and_then(|p| stream.get(p)), '.')
                    && engine::paren_at(stream, i + 1).is_some()
                {
                    out.push((
                        id.span,
                        Rule::PanicPath,
                        format!(
                            ".{}() panics on the failure path; propagate a typed error",
                            id.text
                        ),
                    ));
                }
                // `panic!` family macros.
                if PANIC_MACROS.contains(&id.text.as_str())
                    && engine::is_punct(stream.get(i + 1), '!')
                {
                    out.push((
                        id.span,
                        Rule::PanicPath,
                        format!("{}! aborts the engine mid-run; propagate a typed error", id.text),
                    ));
                }
            }
            TokenTree::Group(g)
                if g.delimiter == Delimiter::Bracket && is_postfix_index(stream, i) =>
            {
                if let Some(kind) = hazardous_index(&g.stream) {
                    out.push((
                        g.span,
                        Rule::PanicPath,
                        format!("{kind} can panic out of bounds; use get()/get_mut() or slicing with checks"),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Whether the bracket group at `stream[i]` sits in postfix (indexing)
/// position: directly after a non-keyword identifier, a call/paren
/// group, or another bracket group.
fn is_postfix_index(stream: &[TokenTree], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| stream.get(p)) else {
        return false;
    };
    match prev {
        TokenTree::Ident(id) => !NON_INDEX_KEYWORDS.contains(&id.text.as_str()),
        TokenTree::Group(g) => {
            g.delimiter == Delimiter::Parenthesis || g.delimiter == Delimiter::Bracket
        }
        _ => false,
    }
}

/// Classifies the index expression: literal index, arithmetic index, or
/// range slicing are hazardous; a bare variable (or field path) is not.
fn hazardous_index(index: &[TokenTree]) -> Option<&'static str> {
    if index.is_empty() {
        return None;
    }
    // A single literal: `v[0]`.
    if index.len() == 1 {
        if let TokenTree::Literal(_) = index[0] {
            return Some("literal indexing");
        }
    }
    let mut prev_was_value = false;
    for (i, t) in index.iter().enumerate() {
        match t {
            // Range slicing: `..` at any top-level position.
            TokenTree::Punct(p) if p.ch == '.' => {
                if matches!(index.get(i + 1), Some(TokenTree::Punct(q)) if q.ch == '.') {
                    return Some("range slicing");
                }
            }
            _ => {}
        }
        match t {
            // Binary arithmetic on the index: `v[i - 1]`, `v[2 * k]`.
            TokenTree::Punct(p) if matches!(p.ch, '+' | '-' | '*' | '/' | '%') => {
                if prev_was_value && !matches!(index.get(i + 1), Some(TokenTree::Punct(_))) {
                    return Some("arithmetic indexing");
                }
                prev_was_value = false;
            }
            TokenTree::Ident(_) | TokenTree::Literal(_) => prev_was_value = true,
            TokenTree::Group(g) if g.delimiter == Delimiter::Parenthesis => prev_was_value = true,
            _ => prev_was_value = false,
        }
    }
    None
}

/// Name fragments marking a byte-count operand.
const BYTES_HINTS: &[&str] = &["byte", "bytes", "size", "backlog", "queued", "payload", "chunk"];
/// Name fragments marking a rate operand.
const RATE_HINTS: &[&str] = &["bps", "bandwidth", "rate", "throughput"];
/// Name fragments marking a time-in-ns operand.
const TIME_HINTS: &[&str] = &["nanos", "_ns", "per_sec"];

/// The `unchecked-width-math` rule: u64-width multiply/divide chains on
/// bytes × bandwidth/time-scale operands outside `sim_core::widemath`.
/// Only non-test function bodies are scanned.
pub fn width_math(fns: &[FnInfo<'_>], out: &mut Vec<RawFinding>) {
    for f in fns {
        if f.in_test {
            continue;
        }
        let Some(body) = &f.item.body else { continue };
        engine::visit_streams(&body.stream, &mut |stream| {
            for stmt in engine::statements(stream) {
                scan_width_stmt(stmt, out);
            }
        });
    }
}

fn scan_width_stmt(stmt: &[TokenTree], out: &mut Vec<RawFinding>) {
    // A statement routed through the sanctioned sink, an explicit u128
    // widening, or checked/saturating math is already safe.
    let mut names = std::collections::BTreeSet::new();
    engine::idents_in(stmt, &mut names);
    if names.contains("widemath")
        || names.contains("u128")
        || names.contains("i128")
        || names.iter().any(|n| n.starts_with("checked_") || n.starts_with("saturating_"))
    {
        return;
    }

    for (i, t) in stmt.iter().enumerate() {
        let TokenTree::Punct(p) = t else { continue };
        if p.ch != '*' {
            continue;
        }
        // Binary multiply, not deref/raw-pointer: previous token must be
        // a value (ident/literal/close-group).
        let prev = i.checked_sub(1).and_then(|x| stmt.get(x));
        let is_value = matches!(
            prev,
            Some(TokenTree::Literal(_)) | Some(TokenTree::Group(_))
        ) || matches!(prev, Some(TokenTree::Ident(id)) if !NON_INDEX_KEYWORDS.contains(&id.text.as_str()));
        if !is_value {
            continue;
        }

        // Classify operand hints in a window around the multiply.
        let lo = i.saturating_sub(8);
        let hi = (i + 9).min(stmt.len());
        let mut bytes_like = false;
        let mut rate_like = false;
        let mut big_scale = false;
        let mut time_like = false;
        let mut window = std::collections::BTreeSet::new();
        engine::idents_in(&stmt[lo..hi], &mut window);
        for name in &window {
            let lower = name.to_ascii_lowercase();
            bytes_like |= BYTES_HINTS.iter().any(|h| lower.contains(h));
            rate_like |= RATE_HINTS.iter().any(|h| lower.contains(h));
            time_like |= TIME_HINTS.iter().any(|h| lower.contains(h) || lower == "ns");
        }
        for t in &stmt[lo..hi] {
            if let TokenTree::Literal(l) = t {
                let digits: String = l.text.chars().filter(|c| c.is_ascii_digit()).collect();
                if digits.parse::<u128>().is_ok_and(|v| v >= 1_000_000) {
                    big_scale = true;
                }
            }
        }

        if bytes_like && (rate_like || big_scale || time_like) {
            out.push((
                p.span,
                Rule::UncheckedWidthMath,
                "u64 multiply on bytes/bandwidth/time operands can overflow; route through sim_core::widemath".to_string(),
            ));
        }
    }
}

/// Heap-allocating macros for the alloc-in-hot-path scan.
const ALLOC_MACROS: &[&str] = &["vec", "format"];
/// Owning container types whose constructors allocate.
const ALLOC_TYPES: &[&str] = &[
    "Vec", "VecDeque", "String", "Box", "BTreeMap", "BTreeSet", "HashMap", "HashSet",
    "BinaryHeap",
];
/// Constructor names on [`ALLOC_TYPES`] that allocate.
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];
/// Method calls that allocate a fresh owned value.
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_string", "to_owned", "collect"];
/// Growth calls that extend a heap buffer in place. Only flagged on
/// locals *born* from an allocating initializer in the same function —
/// a buffer recycled via `mem::take` of a scratch field passes clean,
/// which is exactly the sanctioned fix idiom.
const GROWTH_METHODS: &[&str] =
    &["push", "push_back", "push_front", "push_str", "extend", "insert", "append"];

/// The `alloc-in-hot-path` scan over one (already hot) function body:
/// allocating macros, constructors, owning conversions, and growth of
/// function-born buffers. The caller appends the hot-chain context and
/// owns escape handling.
pub fn alloc_sites(body: &[TokenTree], out: &mut Vec<RawFinding>) {
    // Pass A: locals born from an allocating initializer.
    let mut born: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    engine::visit_streams(body, &mut |stream| {
        for stmt in engine::statements(stream) {
            let mut i = 0;
            if !engine::is_ident(stmt.first(), "let") {
                continue;
            }
            i += 1;
            if engine::is_ident(stmt.get(i), "mut") {
                i += 1;
            }
            let Some(TokenTree::Ident(name)) = stmt.get(i) else { continue };
            if !engine::is_punct(stmt.get(i + 1), '=') && !engine::is_punct(stmt.get(i + 2), '=') {
                // `let x =` or `let x: T =` (single-token type) only;
                // anything fancier falls out of the born set, which
                // under-approximates (growth stays unflagged) — safe.
                continue;
            }
            let mut probe = Vec::new();
            alloc_scan(&stmt[i + 1..], &mut probe);
            for t in &stmt[i + 1..] {
                if let TokenTree::Group(g) = t {
                    alloc_scan(&g.stream, &mut probe);
                }
            }
            if !probe.is_empty() {
                born.insert(name.text.clone());
            }
        }
    });

    // Pass B: allocation and growth sites anywhere in the body.
    engine::visit_streams(body, &mut |stream| {
        alloc_scan(stream, out);
        for (i, t) in stream.iter().enumerate() {
            let TokenTree::Ident(id) = t else { continue };
            if !GROWTH_METHODS.contains(&id.text.as_str()) {
                continue;
            }
            if !engine::is_punct(i.checked_sub(1).and_then(|p| stream.get(p)), '.') {
                continue;
            }
            if engine::paren_at(stream, i + 1).is_none() {
                continue;
            }
            let Some(recv) =
                i.checked_sub(2).and_then(|p| stream.get(p)).and_then(TokenTree::ident)
            else {
                continue;
            };
            if born.contains(recv) {
                out.push((
                    id.span,
                    Rule::AllocInHotPath,
                    format!(
                        "`{recv}.{}()` grows a buffer allocated in this function; \
                         recycle a scratch buffer (mem::take) instead",
                        id.text
                    ),
                ));
            }
        }
    });
}

/// Flat (non-recursive) scan of one stream for allocation expressions.
fn alloc_scan(stream: &[TokenTree], out: &mut Vec<RawFinding>) {
    for (i, t) in stream.iter().enumerate() {
        let TokenTree::Ident(id) = t else { continue };
        let name = id.text.as_str();
        // `vec![…]` / `format!(…)`.
        if ALLOC_MACROS.contains(&name) && engine::is_punct(stream.get(i + 1), '!') {
            out.push((
                id.span,
                Rule::AllocInHotPath,
                format!("{name}! allocates per call"),
            ));
            continue;
        }
        // `Vec::new()` / `String::from(…)` / `Box::new(…)` …
        if ALLOC_TYPES.contains(&name)
            && engine::is_path_sep(stream, i + 1)
            && stream.get(i + 3).and_then(TokenTree::ident).is_some_and(|m| {
                ALLOC_CTORS.contains(&m) && engine::paren_at(stream, i + 4).is_some()
            })
        {
            let ctor = stream[i + 3].ident().unwrap_or("new");
            out.push((
                id.span,
                Rule::AllocInHotPath,
                format!("{name}::{ctor} allocates per call"),
            ));
            continue;
        }
        // `.clone()` / `.to_vec()` / `.collect::<…>()` …
        if ALLOC_METHODS.contains(&name)
            && engine::is_punct(i.checked_sub(1).and_then(|p| stream.get(p)), '.')
        {
            let called = engine::paren_at(stream, i + 1).is_some() || {
                // turbofish: `collect::<Vec<_>>(…)`.
                engine::is_path_sep(stream, i + 1)
                    && engine::is_punct(stream.get(i + 3), '<')
                    && {
                        let mut depth = 0usize;
                        let mut close = None;
                        for (j, t) in stream.iter().enumerate().skip(i + 3) {
                            match t.punct() {
                                Some('<') => depth += 1,
                                Some('>') => {
                                    depth -= 1;
                                    if depth == 0 {
                                        close = Some(j);
                                        break;
                                    }
                                }
                                _ => {}
                            }
                        }
                        close.is_some_and(|j| engine::paren_at(stream, j + 1).is_some())
                    }
            };
            if called {
                out.push((
                    id.span,
                    Rule::AllocInHotPath,
                    format!(".{name}() allocates an owned value per call"),
                ));
            }
        }
    }
}

/// Converts raw findings into [`Finding`]s, applying escapes.
pub fn finalize(file: &str, cx: &FileCx, raw: Vec<RawFinding>, out: &mut Vec<Finding>) {
    let mut consumed = std::collections::BTreeMap::new();
    finalize_tracked(file, cx, raw, out, &mut consumed);
}

/// [`finalize`], recording which escape comments suppressed something:
/// `consumed` maps `(escape line, rule-as-written)` to the number of
/// findings it swallowed. The stale-escape pass reports reasoned
/// escapes that consume nothing.
pub fn finalize_tracked(
    file: &str,
    cx: &FileCx,
    raw: Vec<RawFinding>,
    out: &mut Vec<Finding>,
    consumed: &mut std::collections::BTreeMap<(usize, String), usize>,
) {
    for (span, rule, mut message) in raw {
        if let Some(key) = cx.escaped_at(span.line, rule.name()) {
            *consumed.entry(key).or_insert(0) += 1;
            continue;
        }
        if cx.reasonless_escape(span.line, rule.name()) {
            message.push_str(
                " (escape present but missing a reason; reasons are mandatory — see DESIGN.md §10)",
            );
        }
        out.push(Finding {
            file: file.to_string(),
            line: span.line,
            column: span.column,
            rule,
            message,
        });
    }
}
