//! The sink trait, the per-thread sink binding, and the two built-in sinks.

use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};

use crate::clock::TelemetryClock;
use crate::registry::MetricsRegistry;

/// A typed value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer.
    U64(u64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

/// What kind of event a record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span began.
    SpanStart,
    /// A span ended (carries `duration_ms`).
    SpanEnd,
    /// A point-in-time annotation.
    Point,
}

impl EventKind {
    /// Stable lowercase label used by the JSON-lines exporter.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Point => "point",
        }
    }
}

/// One recorded event (a span boundary or a point annotation).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Milliseconds since the sink's clock origin.
    pub ts_ms: u64,
    /// The event kind.
    pub kind: EventKind,
    /// Hierarchical span path, `/`-separated (e.g. `place/embed`).
    pub path: String,
    /// Span duration, on [`EventKind::SpanEnd`] events.
    pub duration_ms: Option<u64>,
    /// Additional typed fields.
    pub fields: Vec<(String, FieldValue)>,
}

/// Destination for telemetry.
///
/// Implementations must be cheap and non-blocking enough to sit on hot
/// paths; they are called behind the per-thread [`enabled`] check, so the
/// disabled path never reaches them. Metric methods may be called from
/// parallel worker threads — implementations must only rely on
/// commutative updates (integer adds, fixed-point sums) for cross-thread
/// determinism. [`emit`](TelemetrySink::emit) is only called from serial
/// orchestration points (see the crate docs' determinism contract).
pub trait TelemetrySink: Send + Sync {
    /// Current time in milliseconds; sinks without a clock return 0.
    fn now_ms(&self) -> u64 {
        0
    }
    /// Adds `delta` to a counter.
    fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64);
    /// Sets a gauge.
    fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64);
    /// Records a histogram observation.
    fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64);
    /// Records a span boundary or point event.
    fn emit(
        &self,
        kind: EventKind,
        path: &str,
        duration_ms: Option<u64>,
        fields: &[(&str, FieldValue)],
    );
}

/// A sink that drops everything. Every method is an empty inline body,
/// so the compiler erases the calls entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    #[inline]
    fn counter_add(&self, _name: &str, _labels: &[(&str, &str)], _delta: u64) {}
    #[inline]
    fn gauge_set(&self, _name: &str, _labels: &[(&str, &str)], _value: f64) {}
    #[inline]
    fn observe(&self, _name: &str, _labels: &[(&str, &str)], _value: f64) {}
    #[inline]
    fn emit(
        &self,
        _kind: EventKind,
        _path: &str,
        _duration_ms: Option<u64>,
        _fields: &[(&str, FieldValue)],
    ) {
    }
}

/// A sink that records metrics into a [`MetricsRegistry`] and events
/// into an ordered log, stamping timestamps from its [`TelemetryClock`].
#[derive(Debug)]
pub struct RecordingSink {
    clock: TelemetryClock,
    metrics: Mutex<MetricsRegistry>,
    events: Mutex<Vec<Event>>,
}

impl RecordingSink {
    /// A recording sink stamping real elapsed milliseconds.
    pub fn with_wall_clock() -> Self {
        Self::with_clock(TelemetryClock::wall())
    }

    /// A recording sink on the deterministic virtual clock — bit-stable
    /// timestamps for golden tests and reproducible run reports.
    pub fn with_virtual_clock() -> Self {
        Self::with_clock(TelemetryClock::deterministic())
    }

    /// A recording sink on an explicit clock.
    pub fn with_clock(clock: TelemetryClock) -> Self {
        Self {
            clock,
            metrics: Mutex::new(MetricsRegistry::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    /// A deep copy of the current metric state.
    pub fn snapshot(&self) -> MetricsRegistry {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// A copy of the recorded events, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The recorded events as JSON-lines text.
    pub fn jsonl(&self) -> String {
        crate::export::events_to_jsonl(&self.events())
    }

    /// The metric state as a Prometheus text-format snapshot.
    pub fn prometheus(&self) -> String {
        crate::export::registry_to_prometheus(&self.snapshot())
    }
}

impl TelemetrySink for RecordingSink {
    fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counter_add(name, labels, delta);
    }

    fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .gauge_set(name, labels, value);
    }

    fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .observe(name, labels, value);
    }

    fn emit(
        &self,
        kind: EventKind,
        path: &str,
        duration_ms: Option<u64>,
        fields: &[(&str, FieldValue)],
    ) {
        let event = Event {
            ts_ms: self.clock.now_ms(),
            kind,
            path: path.to_string(),
            duration_ms,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }
}

thread_local! {
    /// This thread's bound sink; `None` while telemetry is off here.
    static SINK: RefCell<Option<Arc<dyn TelemetrySink>>> = const { RefCell::new(None) };
}

/// True while a sink is bound to this thread. Instrumented call sites
/// check this before computing labels or values, keeping the disabled
/// path allocation-free.
#[inline]
pub fn enabled() -> bool {
    SINK.try_with(|slot| slot.borrow().is_some())
        .unwrap_or(false)
}

/// Runs `f` with this thread bound to `sink` (`None` unbinds), then
/// restores the previous binding — including when `f` panics.
fn bind<R>(sink: Option<Arc<dyn TelemetrySink>>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<dyn TelemetrySink>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.0.take();
            // Dropped outside the borrow: the outgoing sink's destructor
            // may itself record.
            let _outgoing = SINK.try_with(|slot| slot.replace(previous));
        }
    }
    let _restore = Restore(SINK.with(|slot| slot.replace(sink)));
    f()
}

/// Runs `f` with `sink` bound to the calling thread, then restores the
/// previous binding — including when `f` panics.
///
/// The binding is per thread, so concurrent scopes on different threads
/// never see each other's telemetry, and scopes nest: an inner
/// `with_sink` records into its own sink and hands the outer one back
/// on exit. Threads spawned inside `f` inherit the binding only through
/// [`carry`].
pub fn with_sink<R>(sink: Arc<dyn TelemetrySink>, f: impl FnOnce() -> R) -> R {
    bind(Some(sink), f)
}

/// Wraps `f` to run under the calling thread's current sink binding,
/// wherever it is later called. Pass the result to a thread spawn so
/// the new thread's telemetry reaches its spawner's sink:
/// `std::thread::spawn(so_telemetry::carry(move || work()))`.
pub fn carry<R>(f: impl FnOnce() -> R) -> impl FnOnce() -> R {
    let sink = SINK.try_with(|slot| slot.borrow().clone()).ok().flatten();
    move || bind(sink, f)
}

/// Runs `f` against this thread's bound sink, if any.
pub(crate) fn with_active<R>(f: impl FnOnce(&dyn TelemetrySink) -> R) -> Option<R> {
    SINK.try_with(|slot| slot.borrow().as_deref().map(f))
        .ok()
        .flatten()
}

/// Adds `delta` to the named counter on this thread's bound sink.
///
/// Counters are safe to bump from parallel workers: u64 addition is
/// commutative, so totals are thread-count independent.
#[inline]
pub fn counter_add(name: &str, labels: &[(&str, &str)], delta: u64) {
    if !enabled() {
        return;
    }
    with_active(|sink| sink.counter_add(name, labels, delta));
}

/// Sets the named gauge on this thread's bound sink.
///
/// For deterministic snapshots, set a given gauge key from one serial
/// point only (distinct keys — e.g. one per tree node — are fine from
/// parallel workers: each key still has a single writer).
#[inline]
pub fn gauge_set(name: &str, labels: &[(&str, &str)], value: f64) {
    if !enabled() {
        return;
    }
    with_active(|sink| sink.gauge_set(name, labels, value));
}

/// Records a histogram observation on this thread's bound sink.
///
/// Safe from parallel workers: bucket counts are integer adds and the
/// sum accumulates in fixed-point micro-units (see
/// [`Histogram`](crate::Histogram)).
#[inline]
pub fn observe(name: &str, labels: &[(&str, &str)], value: f64) {
    if !enabled() {
        return;
    }
    with_active(|sink| sink.observe(name, labels, value));
}

/// Emits a point event under the current span path.
///
/// Events are ordered, so only call this from serial orchestration
/// points (the determinism contract; see the crate docs).
pub fn point(name: &str, fields: &[(&str, FieldValue)]) {
    if !enabled() {
        return;
    }
    let path = crate::span::current_path_with(name);
    with_active(|sink| sink.emit(EventKind::Point, &path, None, fields));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_noop() {
        // No sink bound: nothing panics, nothing records.
        counter_add("so_test_disabled", &[], 1);
        gauge_set("so_test_disabled", &[], 1.0);
        observe("so_test_disabled", &[], 1.0);
        point("so_test_disabled", &[]);
    }

    #[test]
    fn with_sink_restores_on_panic() {
        let sink = Arc::new(RecordingSink::with_virtual_clock());
        let result = std::panic::catch_unwind(|| {
            with_sink(sink, || panic!("boom"));
        });
        assert!(result.is_err());
        assert!(!enabled(), "panic must not leave the sink bound");
    }

    #[test]
    fn nested_with_sink_restores_the_outer_sink() {
        let outer = Arc::new(RecordingSink::with_virtual_clock());
        let inner = Arc::new(RecordingSink::with_virtual_clock());
        with_sink(outer.clone(), || {
            counter_add("so_test_nested_total", &[], 1);
            with_sink(inner.clone(), || {
                counter_add("so_test_nested_total", &[], 10)
            });
            counter_add("so_test_nested_total", &[], 100);
        });
        assert!(!enabled());
        assert_eq!(outer.snapshot().counter("so_test_nested_total", &[]), 101);
        assert_eq!(inner.snapshot().counter("so_test_nested_total", &[]), 10);
    }

    #[test]
    fn concurrent_scopes_do_not_cross_talk() {
        // Both threads record inside their scopes at the same time: the
        // barrier holds each one open until the other has recorded too.
        let barrier = std::sync::Barrier::new(2);
        let record = |name: &'static str| {
            let sink = Arc::new(RecordingSink::with_virtual_clock());
            with_sink(sink.clone(), || {
                counter_add(name, &[], 1);
                barrier.wait();
                counter_add(name, &[], 1);
                barrier.wait();
            });
            sink.snapshot()
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| record("so_test_thread_a_total"));
            let b = scope.spawn(|| record("so_test_thread_b_total"));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a.counter("so_test_thread_a_total", &[]), 2);
        assert_eq!(a.counter("so_test_thread_b_total", &[]), 0);
        assert_eq!(b.counter("so_test_thread_b_total", &[]), 2);
        assert_eq!(b.counter("so_test_thread_a_total", &[]), 0);
    }

    #[test]
    fn carry_hands_the_binding_to_a_spawned_thread() {
        let sink = Arc::new(RecordingSink::with_virtual_clock());
        with_sink(sink.clone(), || {
            let unbound = std::thread::spawn(|| counter_add("so_test_carry_total", &[], 1));
            let carried = std::thread::spawn(carry(|| counter_add("so_test_carry_total", &[], 2)));
            unbound.join().unwrap();
            carried.join().unwrap();
        });
        assert_eq!(sink.snapshot().counter("so_test_carry_total", &[]), 2);
    }

    #[test]
    fn recording_sink_collects_all_kinds() {
        let sink = Arc::new(RecordingSink::with_virtual_clock());
        with_sink(sink.clone(), || {
            counter_add("so_test_total", &[("k", "v")], 3);
            gauge_set("so_test_gauge", &[], 2.5);
            observe("so_test_hist", &[], 0.25);
            point("note", &[("ok", FieldValue::Bool(true))]);
        });
        let snap = sink.snapshot();
        assert_eq!(snap.counter("so_test_total", &[("k", "v")]), 3);
        assert_eq!(snap.gauge("so_test_gauge", &[]), Some(2.5));
        assert_eq!(snap.histogram("so_test_hist", &[]).unwrap().count(), 1);
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Point);
        assert_eq!(events[0].path, "note");
    }
}
