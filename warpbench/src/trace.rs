//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start and end, the span that caused it and the id
//! of the request it belongs to. Spans stay in memory until the run ends
//! and are then written out as JSON lines. A layer's *self time* is its
//! span's duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Where spans recorded on other threads (the log writer's backend calls)
/// attach: the request being served and its root span.
#[derive(Debug, Clone, Copy, Default)]
struct Context {
    request: u64,
    parent: Option<u64>,
}

/// The span recorder shared by every wrapper in one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    context: Mutex<Context>,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            context: Mutex::new(Context::default()),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Reserves a span id, so children recorded before the span itself
    /// (from other threads) can name it as their parent.
    pub fn alloc_id(&self) -> u64 {
        // A unique counter that publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under a reserved id.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name,
            request,
            start,
            end,
        });
    }

    /// Records a span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.alloc_id();
        self.record_as(id, name, parent, request, start, end);
        id
    }

    /// Sets the request (and its root span) that spans recorded through
    /// [`Tracer::record_in_context`] belong to.
    pub fn enter(&self, request: u64, parent: Option<u64>) {
        *self.context.lock().expect("trace context poisoned") = Context { request, parent };
    }

    /// Records a span under the current context (see [`Tracer::enter`]).
    pub fn record_in_context(&self, name: &'static str, start: Instant, end: Instant) {
        let ctx = *self.context.lock().expect("trace context poisoned");
        self.record(name, ctx.parent, ctx.request, start, end);
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time in milliseconds of every span called `name`: its duration
    /// minus the union of its children's intervals, clipped to it.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: BTreeMap<u64, Vec<(Instant, Instant)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(parent) = s.parent {
                children.entry(parent).or_default().push((s.start, s.end));
            }
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut covered = 0.0;
                if let Some(kids) = children.get_mut(&s.id) {
                    kids.sort();
                    let mut cursor = s.start;
                    for &(start, end) in kids.iter() {
                        let start = start.max(cursor);
                        let end = end.min(s.end);
                        if end > start {
                            covered += (end - start).as_secs_f64();
                            cursor = end;
                        }
                    }
                }
                ((s.end - s.start).as_secs_f64() - covered) * 1e3
            })
            .collect()
    }

    /// Forgets every span recorded so far.
    pub fn clear(&self) {
        self.spans.lock().expect("span list poisoned").clear();
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// True if no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes every span as one JSON object per line, times in
    /// microseconds since the tracer was created.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span list poisoned").iter() {
            let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                parent,
                s.name,
                s.request,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tracer = Tracer::default();
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        let root = tracer.alloc_id();
        tracer.record_as(root, "request", None, 1, at(0), at(10));
        // Two overlapping children cover [2, 6); one pokes out past the end.
        tracer.record("a", Some(root), 1, at(2), at(5));
        tracer.record("b", Some(root), 1, at(4), at(6));
        tracer.record("c", Some(root), 1, at(9), at(12));
        let selfs = tracer.self_times_ms("request");
        assert_eq!(selfs.len(), 1);
        assert!((selfs[0] - 5.0).abs() < 1e-6, "{selfs:?}");
    }
}
