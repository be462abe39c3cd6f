//! In-memory spans around the benchmark's calls into the product.
//!
//! The product has no spans of its own yet, so the benchmark records one at
//! each public call it makes while tracing (`--trace 1`): name, start, end,
//! the span that caused it, and the op it belongs to. Spans stay in memory
//! until the run ends. A span's *self time* is its duration minus the part
//! of it its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same span list) of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one op share an identifier.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`], consumed by [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// A single-threaded span recorder (each client thread owns one; every
/// tracer of a run shares the same `origin`).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a root span for the next op (fresh `op_id`).
    pub fn enter_op(&mut self, name: &'static str) -> SpanId {
        self.op_id += 1;
        self.enter(name)
    }

    /// Opens a span caused by the innermost open span (if any).
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let now = self.now_ns();
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(idx);
        SpanId(idx)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Times `f` as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span must be closed");
        self.spans
    }
}

/// Times `f` as a leaf span when tracing, or just runs it.
pub fn leaf_opt<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.leaf(name, f),
        None => f(),
    }
}

/// Self time of every span: duration minus the part its children cover.
/// Children are clipped to the parent's interval; siblings recorded by one
/// [`Tracer`] never overlap (spans close innermost-first).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Count, total and self time of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals over one span list (one tracer's output).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Adds `b` into `a`, name by name (merging the tracers of several threads).
pub fn merge_totals(
    a: &mut BTreeMap<&'static str, NameTotals>,
    b: &BTreeMap<&'static str, NameTotals>,
) {
    for (name, t) in b {
        let into = a.entry(name).or_default();
        into.count += t.count;
        into.total_ns += t.total_ns;
        into.self_ns += t.self_ns;
    }
}

/// Most spans written per thread; the per-name totals always cover all.
pub const MAX_SPANS_WRITTEN: usize = 20_000;

/// Renders the trace file: per-name totals over every span, then the first
/// [`MAX_SPANS_WRITTEN`] spans of each thread (`parent` indexes within the
/// thread's list).
pub fn render_json(
    workload: &str,
    totals: &BTreeMap<&'static str, NameTotals>,
    threads: &[Vec<Span>],
) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"workload\":\"{workload}\",\"totals\":{{");
    for (i, (name, t)) in totals.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.count, t.total_ns, t.self_ns
        );
    }
    out.push_str("},\"threads\":[");
    for (ti, spans) in threads.iter().enumerate() {
        if ti > 0 {
            out.push(',');
        }
        out.push('[');
        for (i, s) in spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            );
        }
        out.push(']');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0,100] with children [10,30] and [40,90]; the second child has
        // a grandchild [50,60].
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["b"],
            NameTotals {
                count: 1,
                total_ns: 50,
                self_ns: 40
            }
        );
        // Self times partition the root: they sum to its duration.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span("op", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn tracer_links_parents_and_ops() {
        let mut t = Tracer::new(Instant::now());
        let op = t.enter_op("op");
        t.leaf("x", || ());
        let y = t.enter("y");
        t.leaf("z", || ());
        t.exit(y);
        t.exit(op);
        let op2 = t.enter_op("op");
        t.exit(op2);
        let spans = t.into_spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2), None]);
        let ops: Vec<_> = spans.iter().map(|s| s.op_id).collect();
        assert_eq!(ops, vec![1, 1, 1, 1, 2]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);
    }

    #[test]
    fn merged_totals_add_up() {
        let a = [span("op", 0, 10, None)];
        let b = [span("op", 0, 30, None), span("x", 5, 10, Some(0))];
        let mut totals = totals_by_name(&a);
        merge_totals(&mut totals, &totals_by_name(&b));
        assert_eq!(totals["op"].count, 2);
        assert_eq!(totals["op"].total_ns, 40);
        assert_eq!(totals["op"].self_ns, 35);
        let json = render_json("w", &totals, &[a.to_vec(), b.to_vec()]);
        assert!(json.contains("\"parent\":0"));
        assert!(serde_json::from_str(&json).is_ok());
    }
}
