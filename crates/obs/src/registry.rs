//! The unified metrics registry and the [`Recorder`] seam.
//!
//! Every subsystem takes an `Arc<dyn Recorder>` (defaulting to
//! [`NoopRecorder`]) and asks it for named handles once, at wiring time.
//! Handles encode "off" as `None` internally, so the hot path cost of an
//! uninstrumented counter bump is one branch — no virtual dispatch, no
//! allocation, no lock. A real [`Registry`] hands out shared atomics:
//! counters are striped over 8 cells keyed by a per-thread slot (bumps
//! from concurrent wire workers don't contend on one cache line),
//! gauges are single `AtomicI64`s, histograms are
//! [`crate::Histogram`]s.
//!
//! A component's stats are series too: it resolves its handles in a
//! registry of its own at construction (see [`crate::stats_set!`]), so
//! its counts never depend on wiring, and [`Recorder::adopt`] shares
//! those series into a caller's registry under a prefix.
//!
//! [`Registry::snapshot_json`] renders everything — counters, gauges
//! and histogram summaries — as one canonical sorted-key JSON object.
//! That snapshot is what the wire layer's `Request::Metrics` returns and
//! what the conformance matrix byte-compares across replays.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::encode::escape_json;
use crate::hist::Histogram;
use crate::set::series_name;
use crate::span::SpanSink;

const STRIPES: usize = 8;

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

#[derive(Debug, Default)]
struct CounterCells {
    cells: [AtomicU64; STRIPES],
}

impl CounterCells {
    fn add(&self, n: u64) {
        let slot = SLOT.with(|s| *s);
        self.cells[slot].fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

/// A monotonically increasing counter handle (no-op when detached).
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<CounterCells>>);

impl Counter {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        if let Some(cells) = &self.0 {
            cells.add(1);
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cells) = &self.0 {
            cells.add(n);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |cells| cells.get())
    }
}

/// A last-value gauge handle (no-op when detached).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the value by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> i64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A histogram handle (no-op when detached).
#[derive(Debug, Clone, Default)]
pub struct Histo(Option<Arc<Histogram>>);

impl Histo {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(hist) = &self.0 {
            hist.observe(v);
        }
    }

    /// The backing histogram, if attached.
    pub fn get(&self) -> Option<&Histogram> {
        self.0.as_deref()
    }
}

/// The seam every instrumented subsystem programs against.
pub trait Recorder: Send + Sync {
    /// Named counter handle (created on first request).
    fn counter(&self, name: &str) -> Counter;
    /// Named gauge handle (created on first request).
    fn gauge(&self, name: &str) -> Gauge;
    /// Named histogram handle (created on first request).
    fn histogram(&self, name: &str) -> Histo;
    /// Shares every series of `source` into this recorder as
    /// `<prefix>.<name>`, replacing any series already under that name.
    /// The series stay one: a bump through either registry shows in
    /// both.
    fn adopt(&self, prefix: &str, source: &Registry);
    /// The span sink for causal tracing.
    fn spans(&self) -> SpanSink;
    /// One canonical sorted-key JSON snapshot of everything, or `None`
    /// for recorders that keep nothing.
    fn snapshot_json(&self) -> Option<String>;
}

/// A recorder that keeps nothing; all handles are no-ops.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter(&self, _name: &str) -> Counter {
        Counter::noop()
    }

    fn gauge(&self, _name: &str) -> Gauge {
        Gauge::noop()
    }

    fn histogram(&self, _name: &str) -> Histo {
        Histo::noop()
    }

    fn adopt(&self, _prefix: &str, _source: &Registry) {}

    fn spans(&self) -> SpanSink {
        SpanSink::noop()
    }

    fn snapshot_json(&self) -> Option<String> {
        None
    }
}

/// The real registry. Cheap handles out, one canonical snapshot in.
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<CounterCells>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    sink: SpanSink,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry with metrics on and span recording off.
    pub fn new() -> Self {
        Self::with_sink(SpanSink::noop())
    }

    /// A registry that also records causal spans.
    pub fn with_span_recording() -> Self {
        Self::with_sink(SpanSink::recording())
    }

    fn with_sink(sink: SpanSink) -> Self {
        Self {
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            sink,
        }
    }

    fn render_snapshot(&self) -> String {
        fn section<T>(
            out: &mut String,
            map: &RwLock<BTreeMap<String, T>>,
            render: impl Fn(&T) -> String,
        ) {
            out.push('{');
            for (i, (name, cell)) in map.read().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", escape_json(name), render(cell)));
            }
            out.push('}');
        }
        let mut out = String::from("{\"counters\":");
        section(&mut out, &self.counters, |cells| cells.get().to_string());
        out.push_str(",\"gauges\":");
        section(&mut out, &self.gauges, |cell| {
            cell.load(Ordering::Relaxed).to_string()
        });
        out.push_str(",\"histograms\":");
        section(&mut out, &self.histograms, |hist| hist.summary_json());
        out.push('}');
        out
    }
}

impl Recorder for Registry {
    fn counter(&self, name: &str) -> Counter {
        if let Some(cells) = self.counters.read().get(name) {
            return Counter(Some(Arc::clone(cells)));
        }
        let mut counters = self.counters.write();
        let cells = counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(CounterCells::default()));
        Counter(Some(Arc::clone(cells)))
    }

    fn gauge(&self, name: &str) -> Gauge {
        if let Some(cell) = self.gauges.read().get(name) {
            return Gauge(Some(Arc::clone(cell)));
        }
        let mut gauges = self.gauges.write();
        let cell = gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)));
        Gauge(Some(Arc::clone(cell)))
    }

    fn histogram(&self, name: &str) -> Histo {
        if let Some(hist) = self.histograms.read().get(name) {
            return Histo(Some(Arc::clone(hist)));
        }
        let mut histograms = self.histograms.write();
        let hist = histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()));
        Histo(Some(Arc::clone(hist)))
    }

    fn adopt(&self, prefix: &str, source: &Registry) {
        // Read the source first: adopting a registry into itself must
        // not hold its read and write locks at once.
        fn shared<T>(map: &RwLock<BTreeMap<String, Arc<T>>>) -> Vec<(String, Arc<T>)> {
            map.read()
                .iter()
                .map(|(name, cell)| (name.clone(), Arc::clone(cell)))
                .collect()
        }
        fn insert<T>(
            prefix: &str,
            into: &RwLock<BTreeMap<String, Arc<T>>>,
            from: Vec<(String, Arc<T>)>,
        ) {
            let mut into = into.write();
            for (name, cell) in from {
                into.insert(series_name(prefix, &name), cell);
            }
        }
        insert(prefix, &self.counters, shared(&source.counters));
        insert(prefix, &self.gauges, shared(&source.gauges));
        insert(prefix, &self.histograms, shared(&source.histograms));
    }

    fn spans(&self) -> SpanSink {
        self.sink.clone()
    }

    fn snapshot_json(&self) -> Option<String> {
        Some(self.render_snapshot())
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counters.read().len())
            .field("gauges", &self.gauges.read().len())
            .field("histograms", &self.histograms.read().len())
            .field("spans", &self.sink.is_recording())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("x").get(), 5);
        assert_eq!(reg.counter("y").get(), 0);
    }

    #[test]
    fn gauges_set_and_adjust() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(reg.gauge("depth").get(), 7);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let build = || {
            let reg = Registry::new();
            reg.counter("zeta").add(2);
            reg.counter("alpha").inc();
            reg.gauge("g").set(-5);
            reg.histogram("h").observe(100);
            reg.snapshot_json().unwrap()
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
        assert!(
            a.starts_with(r#"{"counters":{"alpha":1,"zeta":2},"gauges":{"g":-5},"#),
            "{a}"
        );
        assert!(a.contains(r#"},"histograms":{"h":{"#), "{a}");
        assert!(!a.contains("sources"), "{a}");
    }

    #[test]
    fn adopted_series_are_shared_under_the_prefix() {
        let own = Registry::new();
        let hits = own.counter("hits");
        own.gauge("depth").set(3);
        hits.inc();
        let caller = Registry::new();
        caller.adopt("svc.cache", &own);
        hits.inc();
        assert_eq!(caller.counter("svc.cache.hits").get(), 2);
        assert_eq!(caller.gauge("svc.cache.depth").get(), 3);
        caller.counter("svc.cache.hits").inc();
        assert_eq!(hits.get(), 3, "one series, two names");

        // A later adoption under the same prefix replaces the series.
        let fresh = Registry::new();
        fresh.counter("hits").add(7);
        caller.adopt("svc.cache", &fresh);
        assert_eq!(caller.counter("svc.cache.hits").get(), 7);

        own.adopt("self", &own);
        assert_eq!(own.counter("self.hits").get(), 3);
    }

    #[test]
    fn noop_recorder_hands_out_inert_handles() {
        let rec = NoopRecorder;
        let c = rec.counter("x");
        c.inc();
        assert_eq!(c.get(), 0);
        rec.histogram("h").observe(5);
        assert!(rec.histogram("h").get().is_none());
        assert!(rec.snapshot_json().is_none());
        assert!(!rec.spans().is_recording());
    }

    #[test]
    fn registry_works_as_trait_object() {
        let reg: Arc<dyn Recorder> = Arc::new(Registry::with_span_recording());
        reg.counter("c").inc();
        assert!(reg.spans().is_recording());
        assert!(reg.snapshot_json().unwrap().contains(r#""c":1"#));
    }

    #[test]
    fn counter_sums_across_threads() {
        let reg = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = reg.counter("n");
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("n").get(), 4000);
    }
}
