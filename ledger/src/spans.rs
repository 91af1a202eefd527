//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is `{id, parent, op_id, name, start_ns, end_ns}`; spans of one
//! operation share its `op_id`, and probe timings are root spans with no
//! `op_id`. Spans are kept in memory and written once at exit. A
//! disabled tracer records nothing, so untraced runs pay one branch per
//! call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval, nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op_id: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread of the benchmark.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op_id: Option<usize>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op_id,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured root span (requests timed on client
    /// threads are recorded after the fact).
    pub fn record(
        &mut self,
        name: &'static str,
        op_id: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: None,
            op_id,
            name,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Duration of span `id` minus the part of it its direct children cover.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.dur_ns() - covered
}

/// Per-name totals over a span set.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_time_ns(spans, s.id);
    }
    out
}

/// Durations (ns) of every span called `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// The span file: a header object (already JSON), the configuration of
/// each `op_id`, per-name totals with self time, and one object per span.
pub fn to_json(header: &str, ops: &[String], spans: &[Span]) -> String {
    let ops: Vec<String> = ops.iter().map(|o| format!("\"{o}\"")).collect();
    let sums: Vec<String> = totals(spans)
        .iter()
        .map(|(name, t)| {
            format!(
                "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            )
        })
        .collect();
    let mut s = format!(
        "{{\"header\":{header},\"ops\":[{}],\"totals\":{{\n{}\n}},\"spans\":[\n",
        ops.join(","),
        sums.join(",\n")
    );
    for (i, sp) in spans.iter().enumerate() {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
        let _ = write!(
            s,
            "{{\"id\":{},\"parent\":{},\"op_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            sp.id,
            opt(sp.parent),
            opt(sp.op_id),
            sp.name,
            sp.start_ns,
            sp.end_ns
        );
        s.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: usize, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op_id: Some(0),
            name: "x",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // op [0,100) ⊃ capture [10,30) and run [30,90) ⊃ emit [80,95)
        // (emit overhangs run; it is run's child, not op's).
        let spans = vec![
            sp(0, None, 0, 100),
            sp(1, Some(0), 10, 30),
            sp(2, Some(0), 30, 90),
            sp(3, Some(2), 80, 95),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 60);
        assert_eq!(self_time_ns(&spans, 1), 20);
        assert_eq!(self_time_ns(&spans, 2), 60 - 10);
        assert_eq!(self_time_ns(&spans, 3), 15);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            sp(0, None, 0, 100),
            sp(1, Some(0), 10, 60),
            sp(2, Some(0), 40, 70),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 60);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("op", Some(7), |t| t.span("inner", Some(7), |_| ()));
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("op", None, |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
