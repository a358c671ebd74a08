//! In-memory span recording for the traced run, and self-time arithmetic.
//!
//! Spans are recorded by the benchmark's own code only: a root span per
//! client op, a child span around each call into the system under test, and
//! grandchild spans from [`crate::timed::TimedFs`] around each call into a
//! native file system. The client is a single thread, so the recorder is
//! thread-local and spans nest strictly. At the end of each client op the
//! op's spans are folded into per-layer self times and dropped, so memory
//! stays bounded however long the run is.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Marks a span with no parent.
pub const NO_PARENT: usize = usize::MAX;

/// One recorded span: a layer's interval, in ns since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The op this span belongs to (shared by every span of one op).
    pub op_id: u64,
    /// Index of the parent span within the op, or [`NO_PARENT`].
    pub parent: usize,
    /// Layer name, e.g. `"client"`, `"mux"`, `"novafs"`.
    pub layer: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// Self time of every span: its duration minus its children's durations.
/// Spans come from RAII guards on one thread, so children nest inside their
/// parent and never overlap one another.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            selfs[s.parent] -= s.end - s.start;
        }
    }
    selfs
}

/// Per-op-kind totals the recorder accumulates.
#[derive(Debug, Default, Clone)]
pub struct KindTotals {
    /// Ops folded.
    pub ops: u64,
    /// Sum of root (client) span durations, ns.
    pub root_ns: u64,
    /// Per-layer sum of self times, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Per-layer self time of each op (the op's spans of that layer
    /// summed), ns — one entry per op that had such a span.
    pub per_op: BTreeMap<&'static str, Vec<u64>>,
}

#[derive(Default)]
struct Recorder {
    epoch: Option<Instant>,
    op_id: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    kinds: BTreeMap<&'static str, KindTotals>,
    /// Per-layer count of spans recorded.
    calls: BTreeMap<&'static str, u64>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Starts recording on this thread, discarding anything recorded before.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Recorder {
            epoch: Some(Instant::now()),
            ..Default::default()
        }
    });
}

/// What a recording yields: per-op-kind totals, and per-layer span counts.
pub type Recording = (
    BTreeMap<&'static str, KindTotals>,
    BTreeMap<&'static str, u64>,
);

/// Stops recording and returns what was recorded.
pub fn stop() -> Recording {
    REC.with(|r| {
        let rec = std::mem::take(&mut *r.borrow_mut());
        (rec.kinds, rec.calls)
    })
}

/// An open span; closing it (on drop) records its end.
pub struct Guard {
    idx: Option<usize>,
}

impl Guard {
    /// Whether this guard records a span (false for the no-op guard).
    pub fn is_recording(&self) -> bool {
        self.idx.is_some()
    }
}

/// Opens the root span of a client op. A no-op when recording is off.
pub fn root() -> Guard {
    open("client", true)
}

/// Opens a span of `layer` under the innermost open span. A no-op when
/// recording is off on this thread or no client op is open; the caller can
/// tell from [`Guard::is_recording`].
pub fn enter(layer: &'static str) -> Guard {
    open(layer, false)
}

fn open(layer: &'static str, is_root: bool) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(epoch) = r.epoch else {
            return Guard { idx: None };
        };
        if r.stack.is_empty() != is_root {
            return Guard { idx: None };
        }
        let parent = r.stack.last().copied().unwrap_or(NO_PARENT);
        let idx = r.spans.len();
        let op_id = r.op_id;
        let start = now_ns(epoch);
        r.spans.push(Span {
            op_id,
            parent,
            layer,
            start,
            end: start,
        });
        r.stack.push(idx);
        *r.calls.entry(layer).or_default() += 1;
        Guard { idx: Some(idx) }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let Some(epoch) = r.epoch else { return };
            let end = now_ns(epoch);
            r.spans[idx].end = end;
            r.stack.pop();
        });
    }
}

/// Folds the finished op's spans (a root span must have been opened and
/// closed) into the totals for `kind`, and starts the next op id.
pub fn finish_op(kind: &'static str) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.epoch.is_none() || r.spans.is_empty() {
            return;
        }
        debug_assert!(r.stack.is_empty(), "op finished with open spans");
        let spans = std::mem::take(&mut r.spans);
        let selfs = self_times(&spans);
        let totals = r.kinds.entry(kind).or_default();
        totals.ops += 1;
        totals.root_ns += spans[0].end - spans[0].start;
        let mut per_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, &t) in spans.iter().zip(&selfs) {
            *per_layer.entry(s.layer).or_default() += t;
        }
        for (layer, t) in per_layer {
            *totals.self_ns.entry(layer).or_default() += t;
            totals.per_op.entry(layer).or_default().push(t);
        }
        r.op_id += 1;
        let mut spans = spans;
        spans.clear();
        r.spans = spans;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: usize, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            op_id: 0,
            parent,
            layer,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_child_durations() {
        // client [0,100) ⊃ mux [10,90) ⊃ novafs [20,30), [40,60), xefs [60,80)
        let spans = [
            span(NO_PARENT, "client", 0, 100),
            span(0, "mux", 10, 90),
            span(1, "novafs", 20, 30),
            span(1, "novafs", 40, 60),
            span(1, "xefs", 60, 80),
        ];
        let s = self_times(&spans);
        assert_eq!(s, vec![20, 80 - 10 - 20 - 20, 10, 20, 20]);
    }

    #[test]
    fn self_times_of_nested_disjoint_children_sum_to_root() {
        let spans = [
            span(NO_PARENT, "client", 5, 205),
            span(0, "mux", 20, 150),
            span(1, "novafs", 30, 60),
            span(1, "e4fs", 70, 140),
            span(0, "mux", 160, 200),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn recorder_folds_ops_by_kind() {
        start();
        for _ in 0..3 {
            let root = root();
            {
                let _m = enter("mux");
                let _n = enter("novafs");
            }
            drop(root);
            finish_op("read");
        }
        let (kinds, calls) = stop();
        let read = &kinds["read"];
        assert_eq!(read.ops, 3);
        assert_eq!(read.self_ns.values().sum::<u64>(), read.root_ns);
        assert_eq!(read.per_op["mux"].len(), 3);
        assert_eq!(calls["novafs"], 3);
        // Recording is off again: spans are no-ops.
        assert!(root().idx.is_none());
    }

    #[test]
    fn spans_outside_an_op_are_not_recorded() {
        start();
        drop(enter("novafs"));
        let r = root();
        drop(r);
        finish_op("stat");
        let (kinds, calls) = stop();
        assert_eq!(kinds["stat"].ops, 1);
        assert!(!calls.contains_key("novafs"));
    }
}
