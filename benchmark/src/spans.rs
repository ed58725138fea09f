//! Harness-side spans: one per call into a layer, recorded from outside.
//!
//! The traced run wraps every call the harness makes into a crate's
//! public function in a span `{name, start_ns, end_ns, parent,
//! request_id}`. Spans stay in memory until the run ends; a layer's
//! *self time* is its spans' duration minus the part of that interval
//! their child spans cover, so the self times of all layers add up to
//! the root span — the traced wall time.
//!
//! The tracer is shared (`Arc`) because two layers are only reachable
//! through trait objects the driver owns: the executor (apply) and the
//! persistence backend (append / snapshot write). Their wrappers record
//! spans from inside the driver's call, nested under the harness span
//! that is open at that moment.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans written to the trace file at most; the per-layer table always
/// covers every span.
pub const TRACE_FILE_SPAN_CAP: usize = 200_000;

/// One closed (or still open: `end_ns == 0`) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, [`NO_PARENT`] for a root.
    pub parent: u32,
    /// Request the span belongs to (0 = none: boundary or phase work).
    pub request_id: u32,
}

#[derive(Debug)]
struct Inner {
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
    request_id: u32,
    next_request: u32,
}

/// In-memory span recorder. Disabled, every call is one branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Closes its span on drop.
#[must_use = "a span closes when its guard drops"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                spans: Vec::new(),
                stack: Vec::new(),
                request_id: 0,
                next_request: 1,
            }),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("tracer mutex poisoned: a span holder panicked")
    }

    /// Opens a span under whichever span is currently open.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let mut inner = self.lock();
        let index = inner.spans.len() as u32;
        let parent = inner.stack.last().copied().unwrap_or(NO_PARENT);
        let request_id = inner.request_id;
        inner.stack.push(index);
        inner.spans.push(SpanRec {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            request_id,
        });
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Opens the span of a new request; spans opened until it closes
    /// share its fresh request id.
    pub fn request(&self) -> SpanGuard<'_> {
        if self.on {
            let mut inner = self.lock();
            inner.request_id = inner.next_request;
            inner.next_request += 1;
        }
        self.span("request")
    }

    /// All spans recorded so far, in open order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.lock().spans.clone()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end_ns = self.tracer.epoch.elapsed().as_nanos() as u64;
        // A poisoned lock means a panic is already unwinding; the span
        // stays open rather than panicking again inside drop.
        if let Ok(mut inner) = self.tracer.inner.lock() {
            inner.spans[index as usize].end_ns = end_ns;
            inner.stack.pop();
            if inner.spans[index as usize].name == "request" {
                inner.request_id = 0;
            }
        }
    }
}

/// Count, total and self time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals. A span's self time is its duration minus the part
/// of its interval covered by its children (the union of the children's
/// intervals, clipped to the parent). `spans` must be in open order — a
/// child after its parent, siblings by ascending start — which is how
/// [`Tracer`] records them.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, LayerTime> {
    // Per span: (ns covered by children so far, end of that cover).
    let mut cover: Vec<(u64, u64)> = spans.iter().map(|s| (0, s.start_ns)).collect();
    for span in spans {
        if span.parent == NO_PARENT {
            continue;
        }
        let parent = &spans[span.parent as usize];
        let (covered, cover_end) = &mut cover[span.parent as usize];
        let start = span.start_ns.max(*cover_end);
        let end = span.end_ns.min(parent.end_ns);
        if end > start {
            *covered += end - start;
            *cover_end = end;
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, (covered, _)) in spans.iter().zip(&cover) {
        let total = span.end_ns.saturating_sub(span.start_ns);
        let layer = layers.entry(span.name).or_default();
        layer.count += 1;
        layer.total_ns += total;
        layer.self_ns += total.saturating_sub(*covered);
    }
    layers
}

/// The trace document: every span up to [`TRACE_FILE_SPAN_CAP`] (the
/// head of the run: set-up of the tree, the cold phase, the first tuning
/// passes) plus how many there were in all.
pub fn trace_json(workload: &str, seed: u64, spans: &[SpanRec]) -> String {
    let kept = &spans[..spans.len().min(TRACE_FILE_SPAN_CAP)];
    let mut out = String::with_capacity(kept.len() * 96 + 256);
    let _ = write!(
        out,
        "{{\"schema\":\"smdb-benchmark-trace/v1\",\"workload\":\"{workload}\",\"seed\":{seed},\
         \"spans_total\":{},\"spans_written\":{},\"spans\":[",
        spans.len(),
        kept.len()
    );
    for (i, s) in kept.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
            s.name, s.start_ns, s.end_ns
        );
        if s.parent == NO_PARENT {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", s.parent);
        }
        let _ = write!(out, ",\"request_id\":{}}}", s.request_id);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // run [0,100]
        //   request [10,60]
        //     query [12,40]
        //       storage [15,35]
        //     record [40,45]
        //   boundary [60,90]
        //     tune [65,85]
        //     tune [80,95]   overlaps its sibling and overruns the parent
        let spans = [
            span("run", 0, 100, NO_PARENT),
            span("request", 10, 60, 0),
            span("query", 12, 40, 1),
            span("storage", 15, 35, 2),
            span("record", 40, 45, 1),
            span("boundary", 60, 90, 0),
            span("tune", 65, 85, 5),
            span("tune", 80, 95, 5),
        ];
        let t = self_times(&spans);
        assert_eq!(t["storage"].self_ns, 20);
        assert_eq!(t["query"].self_ns, 28 - 20);
        assert_eq!(t["record"].self_ns, 5);
        assert_eq!(t["request"].self_ns, 50 - 28 - 5);
        // Children cover [65,90] of the boundary: the overlap counts
        // once and the overrun past the parent's end not at all.
        assert_eq!(t["boundary"].self_ns, 30 - 25);
        assert_eq!(t["run"].self_ns, 100 - 50 - 30);
        assert_eq!(
            t["tune"],
            LayerTime {
                count: 2,
                total_ns: 35,
                self_ns: 35
            }
        );
        // Without overlapping siblings the self times add up to the root.
        let tree = &spans[..7];
        let sum: u64 = self_times(tree).values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn tracer_nests_spans_and_tags_requests() {
        let tracer = Tracer::new(true);
        {
            let _run = tracer.span("run");
            {
                let _req = tracer.request();
                let _q = tracer.span("query");
            }
            let _b = tracer.span("boundary");
        }
        let spans = tracer.spans();
        let shape: Vec<(&str, u32, u32)> = spans
            .iter()
            .map(|s| (s.name, s.parent, s.request_id))
            .collect();
        assert_eq!(
            shape,
            vec![
                ("run", NO_PARENT, 0),
                ("request", 0, 1),
                ("query", 1, 1),
                ("boundary", 0, 0),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let json = trace_json("w", 7, &spans);
        assert!(json.contains("\"spans_total\":4"));
        assert!(json.contains("\"name\":\"query\""));
        assert!(json.contains("\"parent\":null"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let _req = tracer.request();
            let _q = tracer.span("query");
        }
        assert!(tracer.spans().is_empty());
    }
}
