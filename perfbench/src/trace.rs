//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, an optional tag (the command of a served
//! request, for instance), start and end relative to the run's start, the
//! span that caused it, and the request it belongs to. Spans are kept in
//! memory and written out as JSON lines when the run ends. The layer of a
//! span is the prefix of its name before the first `.`; a layer's self
//! time is the time its spans cover minus the part their child spans
//! cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (ids start at 1; 0 means "no parent").
    pub id: u64,
    /// The id of the span that caused this one, or 0.
    pub parent: u64,
    /// The request this span belongs to, or 0.
    pub req: u64,
    /// `layer.call`, e.g. `serve.execute`.
    pub name: &'static str,
    /// Free-form qualifier, e.g. the command name.
    pub tag: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. When disabled, [`Tracer::timed`] still measures the
/// call (the benchmark needs the duration either way) but records
/// nothing and allocates no ids.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a plain timer.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span and return its result with the elapsed
    /// time. `f` receives the span's id (0 when disabled) so that it can
    /// parent its own child spans.
    pub fn timed<R>(
        &self,
        name: &'static str,
        tag: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let out = f(0);
            return (out, start.elapsed());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            req,
            name,
            tag,
            start_ns: start.duration_since(self.t0).as_nanos() as u64,
            end_ns: end.duration_since(self.t0).as_nanos() as u64,
        };
        self.lock().push(span);
        (out, end - start)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of recorded spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no span was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the union of its children's intervals clipped to it.
    #[must_use]
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.lock();
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) +=
                s.duration_ns().saturating_sub(covered) as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    /// File creation or write failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.lock().iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut c = vec![(10, 30), (20, 40), (50, 60), (90, 120)];
        assert_eq!(covered_ns(&mut c, 0, 100), 30 + 10 + 10);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.timed("bench.outer", "", 0, 1, |id| {
            t.timed("serve.inner", "", id, 1, |_| {
                std::thread::sleep(Duration::from_millis(5));
            });
        });
        let by_layer = t.self_ms_by_layer();
        assert!(by_layer["serve"] >= 5.0, "{by_layer:?}");
        assert!(by_layer["bench"] < by_layer["serve"], "{by_layer:?}");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let t = Tracer::new(false);
        let (v, d) = t.timed("bench.x", "", 0, 0, |id| id + 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(t.is_empty());
    }
}
