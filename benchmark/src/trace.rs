//! Spans around the benchmark's own calls into each layer.
//!
//! A span's name is `<layer>.<call>`, the layer being the workspace crate
//! the call enters. Each thread of the load generator owns one [`Tracer`];
//! they are merged when the run ends. Totals (count, time, self time) are
//! kept for every span; the span records themselves are kept for the first
//! [`KEPT_SPANS`] of a run, which bounds memory on the stream workloads
//! (millions of calls) while the written trace still shows every kind of
//! call with its parent and workload-step id.

use std::collections::BTreeMap;
use std::time::Instant;

const KEPT_SPANS: usize = 20_000;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub thread: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (within the same thread's kept spans) of the enclosing span.
    pub parent: Option<usize>,
    /// The workload step (iteration, stream step, output step) it served.
    pub step: u64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    step: u64,
    kept: Option<usize>,
}

pub struct Tracer {
    on: bool,
    /// Span records this tracer may still keep.
    keep: usize,
    thread: &'static str,
    epoch: Instant,
    stack: Vec<Open>,
    pub spans: Vec<Span>,
    /// Per-name totals. A handful of names, looked up once per span: a
    /// scan that compares the literals' addresses first is cheaper than
    /// any map.
    totals: Vec<(&'static str, SpanTotal)>,
}

fn same_name(a: &'static str, b: &'static str) -> bool {
    (a.as_ptr() == b.as_ptr() && a.len() == b.len()) || a == b
}

impl Tracer {
    /// A tracer whose spans are no-ops: the untraced run takes the same
    /// code path without reading the clock.
    pub fn off() -> Tracer {
        Tracer::new(false, "main", Instant::now())
    }

    pub fn new(on: bool, thread: &'static str, epoch: Instant) -> Tracer {
        Tracer {
            on,
            keep: KEPT_SPANS,
            thread,
            epoch,
            stack: Vec::new(),
            spans: Vec::new(),
            totals: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A tracer for another thread of the same run (same switch, same
    /// time origin). It may keep a third of the records this one still
    /// may, so a round's threads together stay within the budget.
    pub fn fork(&self, thread: &'static str) -> Tracer {
        let mut child = Tracer::new(self.on, thread, self.epoch);
        child.keep = self.keep.saturating_sub(self.spans.len()) / 3;
        child
    }

    /// Runs `f` inside a span. `f` receives the tracer so calls it makes
    /// nest as child spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        step: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let kept = (self.spans.len() < self.keep).then(|| {
            let parent = self.stack.iter().rev().find_map(|o| o.kept);
            self.spans.push(Span {
                name,
                thread: self.thread,
                start_ns: 0,
                end_ns: 0,
                parent,
                step,
            });
            self.spans.len() - 1
        });
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            step,
            kept,
        });
        let out = f(self);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let open = self.stack.pop().expect("span stack is balanced");
        let dur = end_ns - open.start_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let self_ns = dur.saturating_sub(open.child_ns);
        self.add_total(
            open.name,
            SpanTotal {
                count: 1,
                total_ns: dur,
                self_ns,
            },
        );
        if let Some(ix) = open.kept {
            self.spans[ix].start_ns = open.start_ns;
            self.spans[ix].end_ns = end_ns;
            self.spans[ix].step = open.step;
        }
        out
    }

    /// As [`Tracer::span`], but only when `sampled`: for calls so frequent
    /// that timing every one would perturb the run.
    pub fn span_if<R>(
        &mut self,
        sampled: bool,
        name: &'static str,
        step: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if sampled {
            self.span(name, step, f)
        } else {
            f(self)
        }
    }

    /// Folds another thread's tracer into this one. Parent indices stay
    /// thread-local, so they are shifted past this tracer's kept spans.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (name, t) in other.totals {
            self.add_total(name, t);
        }
    }

    fn add_total(&mut self, name: &'static str, t: SpanTotal) {
        let ix = match self.totals.iter().position(|(n, _)| same_name(n, name)) {
            Some(ix) => ix,
            None => {
                self.totals.push((name, SpanTotal::default()));
                self.totals.len() - 1
            }
        };
        let mine = &mut self.totals[ix].1;
        mine.count += t.count;
        mine.total_ns += t.total_ns;
        mine.self_ns += t.self_ns;
    }

    pub fn total(&self, name: &str) -> SpanTotal {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(SpanTotal::default(), |(_, t)| *t)
    }

    /// Self time per layer (the span name up to its first `.`), in ns.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, t) in &self.totals {
            let layer = name.split_once('.').map_or(*name, |(l, _)| l);
            *out.entry(layer).or_insert(0) += t.self_ns;
        }
        out
    }

    /// The trace file: per-span-name totals, then the kept span records.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\",\n \"totals\": {{");
        let mut totals = self.totals.clone();
        totals.sort_by_key(|(name, _)| *name);
        for (ix, (name, t)) in totals.iter().enumerate() {
            out.push_str(&format!(
                "{}\n  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                if ix == 0 { "" } else { "," },
                t.count,
                t.total_ns,
                t.self_ns
            ));
        }
        out.push_str("\n },\n \"spans\": [");
        for (ix, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{}\n  {{\"id\": {ix}, \"name\": \"{}\", \"thread\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {}, \"step\": {}}}",
                if ix == 0 { "" } else { "," },
                s.name,
                s.thread,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.step
            ));
        }
        out.push_str("\n ]\n}\n");
        out
    }
}
