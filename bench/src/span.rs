//! Spans recorded by the benchmark around its own calls into each layer:
//! kept in memory while a trial runs, written out when it ends. A layer's
//! self time is its span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same log) of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation share this identifier.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. Timestamps are nanoseconds since `epoch`, which
/// every thread of a trial shares so the merged log has one time axis.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, capacity: usize) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span and returns its index, for children to name as parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `more` (one thread's log) to `all`, re-basing parent indices.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Per span name: how many spans, their total duration, and their total
/// self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span, so a child that overruns its parent
/// cannot drive self time negative, and overlapping children are not
/// subtracted twice).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, mut covered) in spans.iter().zip(children) {
        covered.sort_unstable();
        let mut covered_ns = 0u64;
        let mut reach = span.start_ns;
        for (start, end) in covered {
            let start = start.max(reach);
            if end > start {
                covered_ns += end - start;
                reach = end;
            }
        }
        let entry = totals.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns() - covered_ns;
    }
    totals
}

/// Writes one JSON line per span: `{name, start, end, parent, op}`.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for span in spans {
        let parent = span.parent.map_or(Value::Null, |p| Value::from(p as u64));
        let line = Value::obj()
            .with("name", span.name)
            .with("start", span.start_ns)
            .with("end", span.end_ns)
            .with("parent", parent)
            .with("op", span.op)
            .render();
        writeln!(out, "{line}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 7,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        // call [0,100] ⊃ submit [0,30], wait [30,90]; wait ⊃ inner [40,60].
        let spans = vec![
            span("store.call", 0, 100, None),
            span("store.submit", 0, 30, Some(0)),
            span("store.wait", 30, 90, Some(0)),
            span("inner", 40, 60, Some(2)),
        ];
        let totals = self_times(&spans);
        assert_eq!(totals["store.call"].self_ns, 10);
        assert_eq!(totals["store.call"].total_ns, 100);
        assert_eq!(totals["store.submit"].self_ns, 30);
        assert_eq!(totals["store.wait"].self_ns, 40);
        assert_eq!(totals["inner"].self_ns, 20);
    }

    #[test]
    fn overlapping_and_overrunning_children_are_clipped() {
        // Children [10,60] and [40,80] overlap; [90,150] overruns the parent.
        let spans = vec![
            span("p", 0, 100, None),
            span("c", 10, 60, Some(0)),
            span("c", 40, 80, Some(0)),
            span("c", 90, 150, Some(0)),
        ];
        // Covered: [10,80] ∪ [90,100] = 80ns.
        assert_eq!(self_times(&spans)["p"].self_ns, 20);
    }

    #[test]
    fn merge_rebases_parents_and_jsonl_is_valid() {
        let mut all = vec![span("a", 0, 10, None)];
        merge(
            &mut all,
            vec![span("b", 0, 10, None), span("c", 2, 4, Some(0))],
        );
        assert_eq!(all[2].parent, Some(1));
        let mut out = Vec::new();
        write_jsonl(&all, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        let last = Value::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.u64_at("parent"), Some(1));
        assert_eq!(last.get("name").and_then(Value::as_str), Some("c"));
    }
}
