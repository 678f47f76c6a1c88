//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! of the program, at nanosecond resolution: name, start, end, parent
//! span and the id of the request (arrival, HTTP request, placement
//! round) they belong to. Counters are recorded at the same boundaries.
//! Nothing is written until [`Tracer::write_jsonl`] at the end of the run.
//! A disabled tracer records nothing and takes no clock readings.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A span id; `0` is "no span".
pub type SpanId = u64;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id, unique in the run.
    pub id: SpanId,
    /// Enclosing span, or 0.
    pub parent: SpanId,
    /// Request the span serves (shared by all its spans).
    pub request: u64,
    /// Layer boundary, e.g. `online.probe`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; finish it with [`Tracer::end`].
#[derive(Debug)]
#[must_use]
pub struct Open {
    id: SpanId,
    parent: SpanId,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The open span's id, for use as a parent.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

/// The span and counter recorder. Thread-safe, so the HTTP service
/// thread and the client thread can share one.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    /// A tracer; a disabled one is a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// True when recording.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span (a no-op when disabled).
    pub fn start(&self, name: &'static str, parent: SpanId, request: u64) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent,
                request,
                name,
                start_ns: 0,
            };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Closes a span.
    pub fn end(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.push(Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Records a span measured elsewhere (e.g. on the HTTP service
    /// thread), given its start and end instants.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            name,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
    }

    /// Adds `delta` to a counter.
    pub fn count(&self, name: &'static str, delta: f64) {
        if !self.enabled {
            return;
        }
        *self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(name)
            .or_insert(0.0) += delta;
    }

    /// A counter's value (0 when never bumped).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Total ns and count of spans named `name`.
    pub fn total(&self, name: &str) -> (u64, usize) {
        let spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
    }

    /// Writes every span and counter as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
            );
        }
        for (name, value) in self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            let _ = writeln!(out, "{{\"counter\":\"{name}\",\"value\":{value}}}");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_requests() {
        let t = Tracer::new(true);
        let outer = t.start("outer", 0, 7);
        let inner = t.start("inner", outer.id(), 7);
        t.end(inner);
        let outer_id = outer.id();
        t.end(outer);
        t.count("things", 2.0);
        let spans = t.spans.lock().unwrap().clone();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, outer_id);
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
        assert_eq!(t.counter("things"), 2.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let s = t.start("x", 0, 0);
        t.end(s);
        t.count("c", 1.0);
        assert_eq!(t.total("x"), (0, 0));
        assert_eq!(t.counter("c"), 0.0);
    }
}
