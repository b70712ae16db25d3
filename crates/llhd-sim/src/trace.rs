//! Simulation traces and VCD output.
//!
//! The paper validates the simulators by checking that the produced traces
//! are identical to those of a commercial simulator. [`Trace`] records every
//! value change of every traced signal, can be diffed against another trace,
//! and can be emitted in the standard Value Change Dump (VCD) format.
//!
//! Signal names are **interned**: the trace holds one name table and every
//! event stores a compact [`TraceId`] into it, so recording a change on the
//! simulation hot path never allocates a string. Engines pre-seed the table
//! with the elaborated design's signal names (see [`Trace::with_names`]) and
//! record through [`Trace::record_id`]; ad-hoc construction by name keeps
//! working through [`Trace::record`], which interns on first use.

use llhd::value::{ConstValue, TimeValue};
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;

/// An interned signal name inside one [`Trace`]'s name table.
///
/// Traces produced by the engines index the table by *resolved*
/// [`SignalId`](crate::design::SignalId), so the same design yields the
/// same ids in both simulators — which is what keeps their event lists
/// byte-comparable.
pub type TraceId = u32;

/// A single recorded value change.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// The simulation time of the change.
    pub time: TimeValue,
    /// The interned name of the signal (resolve via [`Trace::name_of`]).
    pub signal: TraceId,
    /// The new value.
    pub value: ConstValue,
}

/// The ordered list of value changes produced by a simulation run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The interned signal names, indexed by [`TraceId`]. Shared (`Arc`)
    /// so splitting a run into result snapshots reuses one table instead
    /// of cloning every name.
    names: Arc<Vec<String>>,
    /// Whether `lookup` has been populated from a pre-seeded name table
    /// (built lazily on the first record-by-name).
    lookup_built: bool,
    /// Reverse lookup for [`Trace::record`]; engines bypass it entirely.
    lookup: HashMap<String, TraceId>,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Create an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Create a trace whose name table is pre-seeded with `names`, so
    /// [`Trace::record_id`] can be used with indices into that table
    /// (engines pass the elaborated signal names, indexed by resolved
    /// signal id).
    pub fn with_names(names: Vec<String>) -> Self {
        Self::with_shared_names(Arc::new(names))
    }

    /// Create a trace over an already-shared name table (cheap: no name
    /// is cloned). Used to continue recording against the same table
    /// after the events of a run were taken out.
    pub fn with_shared_names(names: Arc<Vec<String>>) -> Self {
        // The reverse-lookup map is built lazily on the first `record` by
        // name: engines only ever record by id, and a map over a large
        // design's signal table would be pure construction overhead.
        Trace {
            names,
            lookup_built: false,
            lookup: HashMap::new(),
            events: Vec::new(),
        }
    }

    /// The shared name table (cheap to clone into another trace).
    pub fn shared_names(&self) -> Arc<Vec<String>> {
        Arc::clone(&self.names)
    }

    /// Intern `name`, returning its id.
    pub fn intern(&mut self, name: &str) -> TraceId {
        if !self.lookup_built {
            self.lookup = self
                .names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.clone(), i as TraceId))
                .collect();
            self.lookup_built = true;
        }
        if let Some(&id) = self.lookup.get(name) {
            return id;
        }
        let id = self.names.len() as TraceId;
        Arc::make_mut(&mut self.names).push(name.to_string());
        self.lookup.insert(name.to_string(), id);
        id
    }

    /// Record a change by signal name (interned on first use).
    pub fn record(&mut self, time: TimeValue, signal: &str, value: ConstValue) {
        let signal = self.intern(signal);
        self.record_id(time, signal, value);
    }

    /// Record a change of a pre-interned signal. This is the engine hot
    /// path: no hashing, no string allocation.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is not an id of this trace's name table —
    /// failing here, at the bad record, beats an out-of-bounds panic
    /// later in an unrelated `to_vcd`/`name_of` call.
    #[inline]
    pub fn record_id(&mut self, time: TimeValue, signal: TraceId, value: ConstValue) {
        assert!(
            (signal as usize) < self.names.len(),
            "record_id: signal id {} out of range ({} interned names)",
            signal,
            self.names.len()
        );
        self.events.push(TraceEvent {
            time,
            signal,
            value,
        });
    }

    /// All events in order of occurrence.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The interned name table, indexed by [`TraceId`].
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The name of an interned signal.
    pub fn name_of(&self, signal: TraceId) -> &str {
        &self.names[signal as usize]
    }

    /// The number of recorded changes.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether an interned name matches a query (exactly, or as the last
    /// hierarchical component).
    fn name_matches(name: &str, query: &str) -> bool {
        name == query
            || (name.ends_with(query)
                && name.as_bytes().get(name.len() - query.len() - 1) == Some(&b'.'))
    }

    /// The changes of one signal (matched by suffix so hierarchical prefixes
    /// can be ignored).
    pub fn changes_of<'a>(&'a self, signal: &'a str) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        // Precompute which interned ids match, so the event scan does no
        // string work.
        let matches: Vec<bool> = self
            .names
            .iter()
            .map(|n| Self::name_matches(n, signal))
            .collect();
        self.events
            .iter()
            .filter(move |e| matches[e.signal as usize])
    }

    /// Compare against another trace, ignoring delta/epsilon ordering within
    /// the same femtosecond: both traces are reduced to the final value each
    /// signal holds at each physical timestamp, which is the observable
    /// behaviour a waveform viewer would show.
    pub fn equivalent(&self, other: &Trace) -> bool {
        self.canonical() == other.canonical()
    }

    /// The canonical (physical-time, signal, final value) sequence used for
    /// trace comparison.
    pub fn canonical(&self) -> Vec<(u128, String, ConstValue)> {
        use std::collections::BTreeMap;
        let mut map: BTreeMap<(u128, &str), &ConstValue> = BTreeMap::new();
        for event in &self.events {
            map.insert(
                (event.time.as_femtos(), self.name_of(event.signal)),
                &event.value,
            );
        }
        // Remove entries that do not change the value relative to the
        // previous entry of the same signal.
        let mut last: HashMap<&str, &ConstValue> = Default::default();
        let mut out = vec![];
        for ((time, signal), value) in map {
            if last.get(signal) == Some(&value) {
                continue;
            }
            last.insert(signal, value);
            out.push((time, signal.to_string(), value.clone()));
        }
        out
    }

    /// Emit the trace in Value Change Dump (VCD) format.
    pub fn to_vcd(&self, timescale: &str) -> String {
        let mut out = String::new();
        writeln!(out, "$timescale {} $end", timescale).unwrap();
        writeln!(out, "$scope module top $end").unwrap();
        // Identifier codes in order of first appearance.
        let mut code_of: Vec<Option<usize>> = vec![None; self.names.len()];
        let mut codes = 0;
        for event in &self.events {
            let code = &mut code_of[event.signal as usize];
            if code.is_none() {
                *code = Some(codes);
                let width = event.value.ty().bit_size().max(1);
                let name = self.name_of(event.signal);
                writeln!(out, "$var wire {} s{} {} $end", width, codes, name).unwrap();
                codes += 1;
            }
        }
        writeln!(out, "$upscope $end").unwrap();
        writeln!(out, "$enddefinitions $end").unwrap();
        let mut current_time = None;
        for event in &self.events {
            let femtos = event.time.as_femtos();
            if current_time != Some(femtos) {
                writeln!(out, "#{}", femtos).unwrap();
                current_time = Some(femtos);
            }
            let idx = code_of[event.signal as usize].unwrap();
            write_vcd_change(&mut out, &event.value, idx);
        }
        out
    }
}

/// Format one VCD value-change line.
fn write_vcd_change(out: &mut String, value: &ConstValue, code: usize) {
    let bits = match value {
        ConstValue::Int(v) => {
            let mut s = String::new();
            for i in (0..v.width()).rev() {
                s.push(if v.bit(i) { '1' } else { '0' });
            }
            s
        }
        ConstValue::Logic(v) => format!("{}", v),
        other => format!("{}", other),
    };
    if bits.len() == 1 {
        writeln!(out, "{}s{}", bits, code).unwrap();
    } else {
        writeln!(out, "b{} s{}", bits, code).unwrap();
    }
}

/// Trace equality is semantic: the same changes, in the same order, under
/// the same names — regardless of how the name tables were built (engines
/// pre-seed the full signal table, hand-built traces intern on first use).
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.events.len() == other.events.len()
            && self.events.iter().zip(other.events.iter()).all(|(a, b)| {
                a.time == b.time
                    && a.value == b.value
                    && self.name_of(a.signal) == other.name_of(b.signal)
            })
    }
}

impl Eq for Trace {}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u128) -> TimeValue {
        TimeValue::from_nanos(ns)
    }

    #[test]
    fn record_and_query() {
        let mut trace = Trace::new();
        trace.record(t(1), "top.clk", ConstValue::bool(true));
        trace.record(t(2), "top.clk", ConstValue::bool(false));
        trace.record(t(2), "top.q", ConstValue::int(8, 5));
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.changes_of("clk").count(), 2);
        assert_eq!(trace.changes_of("top.q").count(), 1);
        assert_eq!(trace.changes_of("missing").count(), 0);
        // Interning: two records of the same name share one table entry.
        assert_eq!(trace.names().len(), 2);
    }

    #[test]
    fn preseeded_and_interned_traces_compare_equal() {
        let mut seeded = Trace::with_names(vec!["top.unused".to_string(), "top.clk".to_string()]);
        seeded.record_id(t(1), 1, ConstValue::bool(true));
        let mut adhoc = Trace::new();
        adhoc.record(t(1), "top.clk", ConstValue::bool(true));
        assert_eq!(seeded, adhoc);
        assert_eq!(seeded.name_of(seeded.events()[0].signal), "top.clk");
    }

    #[test]
    fn equivalence_ignores_delta_ordering() {
        let mut a = Trace::new();
        a.record(TimeValue::new(1000, 0, 0), "x", ConstValue::int(8, 1));
        a.record(TimeValue::new(1000, 1, 0), "x", ConstValue::int(8, 2));
        let mut b = Trace::new();
        b.record(TimeValue::new(1000, 0, 0), "x", ConstValue::int(8, 2));
        assert!(a.equivalent(&b));
        let mut c = Trace::new();
        c.record(TimeValue::new(1000, 0, 0), "x", ConstValue::int(8, 3));
        assert!(!a.equivalent(&c));
    }

    #[test]
    fn equivalence_skips_redundant_changes() {
        let mut a = Trace::new();
        a.record(t(1), "x", ConstValue::int(8, 1));
        a.record(t(2), "x", ConstValue::int(8, 1));
        a.record(t(3), "x", ConstValue::int(8, 2));
        let mut b = Trace::new();
        b.record(t(1), "x", ConstValue::int(8, 1));
        b.record(t(3), "x", ConstValue::int(8, 2));
        assert!(a.equivalent(&b));
    }

    #[test]
    fn suffix_matching_requires_a_component_boundary() {
        let mut trace = Trace::new();
        trace.record(t(1), "top.sclk", ConstValue::bool(true));
        trace.record(t(2), "top.clk", ConstValue::bool(true));
        // "clk" must not match "sclk" (no '.' boundary).
        assert_eq!(trace.changes_of("clk").count(), 1);
    }

    #[test]
    fn vcd_output_contains_definitions_and_changes() {
        let mut trace = Trace::new();
        trace.record(t(1), "clk", ConstValue::bool(true));
        trace.record(t(2), "bus", ConstValue::int(4, 0b1010));
        let vcd = trace.to_vcd("1fs");
        assert!(vcd.contains("$timescale 1fs $end"));
        assert!(vcd.contains("$var wire 1 s0 clk $end"));
        assert!(vcd.contains("$var wire 4 s1 bus $end"));
        assert!(vcd.contains("#1000000"));
        assert!(vcd.contains("1s0"));
        assert!(vcd.contains("b1010 s1"));
    }
}
