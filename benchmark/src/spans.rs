//! Spans recorded around the calls the benchmark makes into each crate.
//!
//! A span is `{id, parent, iteration, name, start, end}` plus a count of
//! the work it did (events replayed, plan events built). Spans are kept
//! in memory and written out when the run ends. A disabled tracer runs
//! the wrapped call and records nothing, not even a clock read, so the
//! untraced stream workload shares its code with the traced one.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a span; 0 is "no parent".
pub type SpanId = u64;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub iter: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub work: u64,
}

/// Records spans from any thread (the sweep's points run on workers).
pub struct Tracer {
    origin: Option<Instant>,
    iter: AtomicU32,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Self { origin: Some(Instant::now()), ..Self::off() }
    }

    /// A tracer that only runs the wrapped calls.
    pub fn off() -> Self {
        Self {
            origin: None,
            iter: AtomicU32::new(0),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Tags every span recorded from now on with iteration `iter`.
    pub fn set_iteration(&self, iter: u32) {
        self.iter.store(iter, Ordering::Relaxed);
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` gets the
    /// new span's id to parent its own calls.
    pub fn span<R>(&self, parent: SpanId, name: &'static str, f: impl FnOnce(SpanId) -> R) -> R {
        self.span_with_work(parent, name, |id| (f(id), 0))
    }

    /// [`Self::span`] for a call that also reports how much work it did.
    pub fn span_with_work<R>(
        &self,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce(SpanId) -> (R, u64),
    ) -> R {
        let Some(origin) = self.origin else {
            return f(0).0;
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = origin.elapsed().as_nanos() as u64;
        let (result, work) = f(id);
        let end_ns = origin.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            parent,
            iter: self.iter.load(Ordering::Relaxed),
            name,
            start_ns,
            end_ns,
            work,
        };
        self.spans.lock().expect("a span recorder panicked").push(span);
        result
    }

    /// Every span recorded so far, in the order they ended.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }
}

/// Self time, work and call count of every span name in a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    pub self_ns: u64,
    pub work: u64,
    pub calls: u64,
}

/// Sums each span's self time — its duration minus the part of it that
/// its children cover — by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let layer = layers.entry(s.name).or_default();
        layer.self_ns += (s.end_ns - s.start_ns).saturating_sub(covered);
        layer.work += s.work;
        layer.calls += 1;
    }
    layers
}

/// Length of the union of `intervals` clipped to `[lo, hi]`. Children
/// overlap when they ran on different threads.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, iter: 0, name, start_ns, end_ns, work: 1 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "root", 0, 100),
            // Two overlapping children (parallel workers) cover 10..60.
            span(2, 1, "child", 10, 50),
            span(3, 1, "child", 20, 60),
            span(4, 2, "leaf", 15, 25),
        ];
        let layers = self_times(&spans);
        assert_eq!(layers["root"].self_ns, 50);
        assert_eq!(layers["child"].self_ns, 30 + 40);
        assert_eq!(layers["leaf"].self_ns, 10);
        assert_eq!((layers["child"].calls, layers["child"].work), (2, 2));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::off();
        assert_eq!(tracer.span(0, "x", |id| id + 7), 7);
        assert!(tracer.spans().is_empty());
        let tracer = Tracer::on();
        tracer.span(0, "outer", |outer| tracer.span(outer, "inner", |_| ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
    }
}
