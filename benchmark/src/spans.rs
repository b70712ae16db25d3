//! The harness-side span recorder of the traced run.
//!
//! A span is one call into a layer's public function, timed from outside:
//! `{id, parent, op, name, start_ns, end_ns}`. Spans of one operation (one
//! design taken through the stack, one request) share `op`. They are
//! pushed into a preallocated vector and written out once, at exit. A
//! layer's self time is its span minus the part its child spans cover.
//! With tracing off every entry point is one untaken branch.

use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept per recorder; later ones are counted in `dropped`.
const CAPACITY: usize = 1 << 18;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// 0: a root span.
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's recorder. Ids carry the thread's `lane` in the top byte so
/// recorders merge by concatenation.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    lane: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, lane: u32) -> Self {
        Tracer {
            on,
            epoch,
            lane,
            spans: if on {
                Vec::with_capacity(CAPACITY)
            } else {
                Vec::new()
            },
            open: Vec::new(),
            op: 0,
            dropped: 0,
        }
    }

    pub fn off() -> Self {
        Tracer::new(false, Instant::now(), 0)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Start the next operation; spans recorded until the next call share
    /// its number.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; pair with [`Tracer::exit`]. Returns a token that is
    /// meaningless when tracing is off.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        if self.spans.len() >= CAPACITY {
            self.dropped += 1;
            return usize::MAX;
        }
        let index = self.spans.len();
        let parent = self.open.last().map_or(0, |&p| self.spans[p].id);
        let start_ns = self.now();
        self.spans.push(Span {
            id: (self.lane << 24) | (index as u32 + 1),
            parent,
            op: (self.lane << 24) | self.op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        index
    }

    pub fn exit(&mut self, token: usize) {
        if token == usize::MAX {
            return;
        }
        let end_ns = self.now();
        let index = self.open.pop().expect("exit without enter");
        assert_eq!(index, token, "spans must nest");
        self.spans[index].end_ns = end_ns;
    }

    /// Time one leaf call into a layer.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let token = self.enter(name);
        let value = f();
        self.exit(token);
        value
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed span");
        self.spans
    }
}

/// Per span name: `(count, total self nanoseconds)`, self time being the
/// span's duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(span.parent).or_default() += span.nanos();
    }
    let mut table: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for span in spans {
        let own = span
            .nanos()
            .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
        let row = table.entry(span.name).or_default();
        row.0 += 1;
        row.1 += own;
    }
    table
}

/// The span file: one JSON document, spans in recording order.
pub fn to_json(workload: &str, spans: &[Span], dropped: u64) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 256);
    out.push_str(&format!(
        "{{\"workload\":\"{}\",\"clock\":\"ns since the run's epoch\",\"dropped\":{},\"self_time\":{{",
        workload, dropped
    ));
    let table = self_times(spans);
    for (i, (name, (count, ns))) in table.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"self_ns\":{}}}",
            name, count, ns
        ));
    }
    out.push_str("},\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now(), 1);
        t.next_op();
        let outer = t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[0].op, spans[1].op);
        let table = self_times(&spans);
        let (_, outer_self) = table["outer"];
        let (_, inner_self) = table["inner"];
        assert!(inner_self >= 2_000_000);
        assert!(outer_self < inner_self, "outer's self time excludes inner");
        assert!(to_json("w", &spans, 0).contains("\"name\":\"inner\""));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", || 3), 3);
        assert!(t.into_spans().is_empty());
    }
}
