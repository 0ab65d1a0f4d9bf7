//! The traced run's span recorder.
//!
//! A span is one timed call: its name, start and end (relative to the
//! recorder's epoch), the span it nested in, and the benchmark's request
//! id for the operation it belongs to. Spans are kept in memory while the
//! run measures and written out, if asked, once it ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start: Duration,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Thread-safe, append-only span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>, request: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            request,
            start: self.epoch.elapsed(),
        }
    }

    /// Ends a span, returning its duration in ms.
    pub fn close(&self, open: Open) -> f64 {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            request: open.request,
            start: open.start,
            end: self.epoch.elapsed(),
        };
        let ms = span.ms();
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
        ms
    }

    /// Runs `f` inside a span, returning its result and the span's
    /// duration in ms.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.open(name, parent, request);
        let out = f();
        (out, self.close(open))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"request\": {}, \
                 \"start_us\": {}, \"end_us\": {}}}",
                s.id,
                s.name,
                s.request,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}

/// Opens a span when tracing, does nothing otherwise — so the untraced
/// runs pay no recording cost at all.
pub fn open(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    request: u64,
) -> Option<Open> {
    tracer.map(|t| t.open(name, parent, request))
}

/// Closes a span opened with [`open`].
pub fn close(tracer: Option<&Tracer>, open: Option<Open>) {
    if let (Some(t), Some(o)) = (tracer, open) {
        t.close(o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_parent_and_request() {
        let tracer = Tracer::new();
        let root = tracer.open("op", None, 7);
        let root_id = root.id();
        tracer.time("child", Some(root_id), 7, || ());
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "child");
        assert_eq!(spans[0].parent, Some(root_id));
        assert_eq!(spans[1].request, 7);
        assert!(spans[1].end >= spans[0].end);
    }
}
