//! The v2 analysis engine: file context shared by every rule.
//!
//! One [`FileCx`] per file carries what the rules need beyond raw
//! tokens: the escape comments (v2 grammar: `// simlint: allow(<rule>,
//! <reason>)` — the reason is mandatory). [`for_each_fn`] supplies the
//! function inventory with test-code attribution (`#[cfg(test)]` modules
//! and `#[test]` functions), which the panic-path and width-math rules
//! skip.

use std::collections::{BTreeMap, BTreeSet};

use syn::{Group, Item, ItemFn, TokenTree};

/// One parsed escape comment.
#[derive(Clone, Debug)]
pub struct Escape {
    /// The rule name inside `allow(...)` (or `all`).
    pub rule: String,
    /// The mandatory reason string; `None` marks a legacy reasonless
    /// escape, which no longer suppresses.
    pub reason: Option<String>,
}

/// A function discovered by the item walk.
pub struct FnInfo<'a> {
    /// The function item.
    pub item: &'a ItemFn,
    /// True when the function is test code (`#[test]`, or any enclosing
    /// `#[cfg(test)]` module).
    pub in_test: bool,
}

/// Per-file analysis context.
pub struct FileCx {
    /// Escape comments by 1-based line number.
    pub escapes: BTreeMap<usize, Vec<Escape>>,
}

impl FileCx {
    /// Builds the context from the raw source (token streams drop
    /// comments).
    pub fn build(src: &str) -> FileCx {
        FileCx { escapes: parse_escapes(src) }
    }

    /// Whether `rule` is escaped at `line` (same line or the line
    /// directly above) **with a reason** — and by which escape: the
    /// comment's line and the rule text as written (`"all"` or the rule
    /// name). Reasonless escapes are the old grammar and deliberately do
    /// not suppress. The stale-escape pass uses the returned key to know
    /// which escapes still earn their keep.
    pub fn escaped_at(&self, line: usize, rule: &str) -> Option<(usize, String)> {
        let hit = |l: usize| {
            self.escapes.get(&l).and_then(|list| {
                list.iter()
                    .find(|e| e.reason.is_some() && (e.rule == rule || e.rule == "all"))
                    .map(|e| (l, e.rule.clone()))
            })
        };
        hit(line).or_else(|| if line > 1 { hit(line - 1) } else { None })
    }

    /// Whether a *reasonless* escape for `rule` sits at `line` — used to
    /// append a "reasons are mandatory" hint to the finding it failed to
    /// suppress.
    pub fn reasonless_escape(&self, line: usize, rule: &str) -> bool {
        let hit = |l: usize| {
            self.escapes.get(&l).is_some_and(|list| {
                list.iter()
                    .any(|e| e.reason.is_none() && (e.rule == rule || e.rule == "all"))
            })
        };
        hit(line) || (line > 1 && hit(line - 1))
    }
}

/// Parses every `// simlint: allow(...)` comment in the raw source.
///
/// v2 grammar: `allow(<rule>, <reason…>)` — everything after the first
/// comma is the reason string. `allow(<rule>)` parses with `reason:
/// None` and is reported as a stale legacy escape by [`FileCx::escaped`]
/// refusing to honour it.
fn parse_escapes(src: &str) -> BTreeMap<usize, Vec<Escape>> {
    let mut out: BTreeMap<usize, Vec<Escape>> = BTreeMap::new();
    for (ix, raw) in src.lines().enumerate() {
        let line = ix + 1;
        let Some(comment_at) = raw.find("//") else { continue };
        let comment = raw[comment_at + 2..].trim();
        let Some(rest) = comment.strip_prefix("simlint:") else { continue };
        let rest = rest.trim();
        let Some(open) = rest.strip_prefix("allow(") else { continue };
        let Some(close) = open.rfind(')') else { continue };
        let inner = &open[..close];
        let (rule, reason) = match inner.split_once(',') {
            Some((rule, reason)) => {
                let reason = reason.trim();
                (rule.trim(), (!reason.is_empty()).then(|| reason.to_string()))
            }
            None => (inner.trim(), None),
        };
        if rule.is_empty() {
            continue;
        }
        out.entry(line)
            .or_default()
            .push(Escape { rule: rule.to_string(), reason });
    }
    out
}

/// Walks every function item (free, associated, trait-default, nested in
/// modules), tagging test code.
pub fn for_each_fn<'a>(items: &'a [Item], in_test: bool, out: &mut Vec<FnInfo<'a>>) {
    for item in items {
        match item {
            Item::Fn(f) => {
                let test = in_test || f.attrs.iter().any(|a| a.is_test());
                out.push(FnInfo { item: f, in_test: test });
            }
            Item::Mod(m) => {
                if let Some(content) = &m.content {
                    let test = in_test || m.attrs.iter().any(|a| a.is_cfg_test());
                    for_each_fn(content, test, out);
                }
            }
            Item::Impl(im) => {
                let test = in_test || im.attrs.iter().any(|a| a.is_cfg_test());
                for_each_fn(&im.items, test, out);
            }
            _ => {}
        }
    }
}

/// Flattens the items to one token stream (group nesting preserved) for
/// token-linear rules that must see the whole file — signatures, consts,
/// struct bodies and macro arguments included.
pub fn flatten(items: &[Item]) -> Vec<TokenTree> {
    let mut out = Vec::new();
    fn push_items(items: &[Item], out: &mut Vec<TokenTree>) {
        for item in items {
            match item {
                Item::Use(_) => {}
                Item::Fn(f) => {
                    out.extend(f.signature.iter().cloned());
                    if let Some(b) = &f.body {
                        out.push(TokenTree::Group(b.clone()));
                    }
                }
                Item::Mod(m) => {
                    if let Some(content) = &m.content {
                        push_items(content, out);
                    }
                }
                Item::Impl(im) => {
                    out.extend(im.header.iter().cloned());
                    push_items(&im.items, out);
                }
                Item::Other(attrs, toks) => {
                    for a in attrs {
                        out.extend(a.tokens.iter().cloned());
                    }
                    out.extend(toks.iter().cloned());
                }
            }
        }
    }
    push_items(items, &mut out);
    out
}

/// Recursively visits every (stream, index) position in a token stream,
/// descending into groups. The callback sees each stream exactly once.
pub fn visit_streams<'a>(stream: &'a [TokenTree], f: &mut impl FnMut(&'a [TokenTree])) {
    f(stream);
    for t in stream {
        if let TokenTree::Group(g) = t {
            visit_streams(&g.stream, f);
        }
    }
}

/// True if the token is the identifier `name`.
pub fn is_ident(t: Option<&TokenTree>, name: &str) -> bool {
    t.and_then(TokenTree::ident) == Some(name)
}

/// True if the token is the punctuation `ch`.
pub fn is_punct(t: Option<&TokenTree>, ch: char) -> bool {
    t.and_then(TokenTree::punct) == Some(ch)
}

/// True if `stream[i]`/`stream[i+1]` are the `::` separator.
pub fn is_path_sep(stream: &[TokenTree], i: usize) -> bool {
    is_punct(stream.get(i), ':') && is_punct(stream.get(i + 1), ':')
}

/// The paren group at `stream[i]`, if any.
pub fn paren_at(stream: &[TokenTree], i: usize) -> Option<&Group> {
    stream
        .get(i)
        .and_then(TokenTree::group)
        .filter(|g| g.delimiter == syn::Delimiter::Parenthesis)
}

/// Splits a brace/stream body into statements at top-level semicolons.
/// Control-flow blocks stay embedded in their statement; callers recurse
/// via the statements' own groups.
pub fn statements(stream: &[TokenTree]) -> Vec<&[TokenTree]> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, t) in stream.iter().enumerate() {
        if t.punct() == Some(';') {
            out.push(&stream[start..i]);
            start = i + 1;
        }
    }
    if start < stream.len() {
        out.push(&stream[start..]);
    }
    out
}

/// Collects the identifier texts appearing anywhere in a stream
/// (recursing into groups).
pub fn idents_in(stream: &[TokenTree], out: &mut BTreeSet<String>) {
    for t in stream {
        match t {
            TokenTree::Ident(i) => {
                out.insert(i.text.clone());
            }
            TokenTree::Group(g) => idents_in(&g.stream, out),
            _ => {}
        }
    }
}
