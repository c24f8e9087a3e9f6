//! The [`Telemetry`] recording handle and its immutable [`Snapshot`].

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sim_core::SimTime;

use crate::config::{Category, TelemetryConfig};

/// A named interval on a track (one track per container or NIC).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The track (Perfetto thread) the span is drawn on.
    pub track: String,
    /// The span's name.
    pub name: String,
    /// Start of the interval, in virtual time.
    pub start: SimTime,
    /// End of the interval, in virtual time (`>= start`).
    pub end: SimTime,
}

/// An instant event on a track (e.g. a management action).
#[derive(Clone, Debug, PartialEq)]
pub struct Marker {
    /// The track the marker is drawn on.
    pub track: String,
    /// The marker's name.
    pub name: String,
    /// When the event happened, in virtual time.
    pub at: SimTime,
}

/// Everything a [`Telemetry`] handle recorded, in deterministic order.
///
/// Spans sort by `(start, track, name, end)`, markers by
/// `(at, track, name)`; counters and series are ordered maps and every
/// series is sorted by timestamp. Two runs that record the same signals
/// produce byte-identical exports regardless of recording thread
/// interleaving (counter totals commute; per-thread signal sets must
/// themselves be deterministic, which the DES pipeline guarantees).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Recorded spans, sorted.
    pub spans: Vec<Span>,
    /// Recorded instant events, sorted.
    pub markers: Vec<Marker>,
    /// Monotonic counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge time series by name, each sorted by timestamp.
    pub series: BTreeMap<String, Vec<(SimTime, f64)>>,
}

impl Snapshot {
    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.markers.is_empty()
            && self.counters.is_empty()
            && self.series.is_empty()
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    markers: Vec<Marker>,
    counters: BTreeMap<String, u64>,
    series: BTreeMap<String, Vec<(SimTime, f64)>>,
}

struct Inner {
    config: TelemetryConfig,
    state: Mutex<State>,
}

/// A cheap-to-clone recording handle; clones share one signal store.
///
/// The default handle is **disabled**: every record call is a no-op that
/// returns before touching any state. An enabled handle is created with
/// [`Telemetry::new`] and records only the categories its
/// [`TelemetryConfig`] switched on.
///
/// Recording is thread-safe (the datatap and EVPath transports record
/// from worker threads) and never interacts with the DES kernel, so it
/// cannot perturb the event schedule.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A handle that records nothing (same as `Telemetry::default()`).
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A handle recording the categories enabled in `config`.
    ///
    /// If `config` enables nothing this returns the disabled handle, so
    /// callers can pass a config through unconditionally.
    pub fn new(config: TelemetryConfig) -> Telemetry {
        if !config.any() {
            return Telemetry::disabled();
        }
        Telemetry { inner: Some(Arc::new(Inner { config, state: Mutex::new(State::default()) })) }
    }

    /// True if any category records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True if `category` records through this handle.
    pub fn enabled(&self, category: Category) -> bool {
        self.inner.as_ref().is_some_and(|i| i.config.enabled(category))
    }

    /// The active config (all-off for a disabled handle).
    pub fn config(&self) -> TelemetryConfig {
        self.inner.as_ref().map(|i| i.config).unwrap_or_default()
    }

    fn with_state(&self, category: Category, f: impl FnOnce(&mut State)) {
        if let Some(inner) = &self.inner {
            if inner.config.enabled(category) {
                f(&mut inner.state.lock());
            }
        }
    }

    /// Records an interval `[start, end]` named `name` on `track`.
    pub fn span(&self, category: Category, track: &str, name: &str, start: SimTime, end: SimTime) {
        debug_assert!(start <= end, "span ends before it starts: {start} > {end}");
        self.with_state(category, |s| {
            // simlint: allow(alloc-in-hot-path, the recorder owns its samples — every span keeps its own track/name strings by design)
            s.spans.push(Span { track: track.to_string(), name: name.to_string(), start, end });
        });
    }

    /// Records an instant event named `name` on `track` at `at`.
    pub fn mark(&self, category: Category, track: &str, name: &str, at: SimTime) {
        self.with_state(category, |s| {
            // simlint: allow(alloc-in-hot-path, the recorder owns its samples — every marker keeps its own track/name strings by design)
            s.markers.push(Marker { track: track.to_string(), name: name.to_string(), at });
        });
    }

    /// Adds `delta` to the monotonic counter `name`.
    pub fn count(&self, category: Category, name: &str, delta: u64) {
        self.with_state(category, |s| {
            if let Some(c) = s.counters.get_mut(name) {
                *c += delta;
                return;
            }
            // simlint: allow(alloc-in-hot-path, first touch of a counter name; every later hit takes the get_mut fast path above)
            s.counters.insert(name.to_string(), delta);
        });
    }

    /// Appends `(at, value)` to the gauge time series `name`.
    pub fn gauge(&self, category: Category, name: &str, at: SimTime, value: f64) {
        self.with_state(category, |s| {
            if let Some(series) = s.series.get_mut(name) {
                series.push((at, value));
                return;
            }
            // simlint: allow(alloc-in-hot-path, first touch of a gauge name; every later sample takes the get_mut fast path above)
            s.series.insert(name.to_string(), vec![(at, value)]);
        });
    }

    /// The current total of counter `name` (0 if absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.inner {
            Some(inner) => inner.state.lock().counters.get(name).copied().unwrap_or(0),
            None => 0,
        }
    }

    /// A copy of the gauge series `name` (empty if absent or disabled).
    pub fn series(&self, name: &str) -> Vec<(SimTime, f64)> {
        match &self.inner {
            Some(inner) => inner.state.lock().series.get(name).cloned().unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// An immutable, deterministically-ordered copy of everything
    /// recorded so far. Empty for a disabled handle.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else { return Snapshot::default() };
        let state = inner.state.lock();
        let mut spans = state.spans.clone();
        spans.sort_by(|a, b| {
            (a.start, &a.track, &a.name, a.end).cmp(&(b.start, &b.track, &b.name, b.end))
        });
        let mut markers = state.markers.clone();
        markers.sort_by(|a, b| (a.at, &a.track, &a.name).cmp(&(b.at, &b.track, &b.name)));
        let mut series = state.series.clone();
        for points in series.values_mut() {
            points.sort_by_key(|(at, _)| *at);
        }
        Snapshot { spans, markers, counters: state.counters.clone(), series }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.is_enabled()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        tel.span(Category::Container, "Helper", "step", SimTime::ZERO, SimTime::from_secs(1));
        tel.count(Category::Net, "net.messages", 3);
        tel.gauge(Category::Container, "q", SimTime::ZERO, 1.0);
        assert!(!tel.is_enabled());
        assert!(tel.snapshot().is_empty());
        assert_eq!(tel.counter("net.messages"), 0);
    }

    #[test]
    fn all_off_config_collapses_to_disabled() {
        assert!(!Telemetry::new(TelemetryConfig::off()).is_enabled());
        assert!(Telemetry::new(TelemetryConfig::all()).is_enabled());
    }

    #[test]
    fn disabled_categories_are_filtered() {
        let tel = Telemetry::new(TelemetryConfig { net: true, ..TelemetryConfig::off() });
        tel.count(Category::Net, "net.messages", 2);
        tel.count(Category::Overlay, "evpath.delivered", 5);
        assert_eq!(tel.counter("net.messages"), 2);
        assert_eq!(tel.counter("evpath.delivered"), 0);
        assert!(tel.enabled(Category::Net));
        assert!(!tel.enabled(Category::Overlay));
    }

    #[test]
    fn clones_share_the_store() {
        let tel = Telemetry::new(TelemetryConfig::all());
        let other = tel.clone();
        other.count(Category::Kernel, "events", 7);
        assert_eq!(tel.counter("events"), 7);
    }

    #[test]
    fn snapshot_orders_deterministically() {
        let tel = Telemetry::new(TelemetryConfig::all());
        let t = SimTime::from_micros;
        tel.span(Category::Container, "Bonds", "step", t(10), t(20));
        tel.span(Category::Container, "Helper", "step", t(5), t(9));
        tel.span(Category::Container, "Bonds", "step", t(5), t(8));
        tel.mark(Category::Management, "mgmt", "increase", t(15));
        tel.mark(Category::Management, "mgmt", "decrease", t(15));
        tel.gauge(Category::Container, "q", t(9), 2.0);
        tel.gauge(Category::Container, "q", t(3), 1.0);
        let snap = tel.snapshot();
        assert_eq!(snap.spans[0].track, "Bonds");
        assert_eq!(snap.spans[0].start, t(5));
        assert_eq!(snap.spans[1].track, "Helper");
        assert_eq!(snap.spans[2].start, t(10));
        assert_eq!(snap.markers[0].name, "decrease");
        assert_eq!(snap.series["q"], vec![(t(3), 1.0), (t(9), 2.0)]);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the recorder is shared across threads: only real threads can race on it"
    )]
    fn counters_accumulate_across_threads() {
        let tel = Telemetry::new(TelemetryConfig::all());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let tel = tel.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        tel.count(Category::Transport, "datatap.announced", 1);
                    }
                });
            }
        });
        assert_eq!(tel.counter("datatap.announced"), 400);
    }
}
