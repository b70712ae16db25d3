//! The shared hot-path scheduling core of both simulation engines.
//!
//! The reference interpreter ([`Simulator`](crate::engine::Simulator)) and
//! the compiled simulator (`llhd-blaze`) execute unit bodies very
//! differently, but share the exact same event-driven scheduling model.
//! This module implements that model once, tuned for the hot path:
//!
//! * **Calendar event queue** ([`EventQueue`]): a binary min-heap over
//!   pending instants whose event payloads live in free-listed
//!   [`EventBucket`]s that are reused across pops (no per-instant
//!   allocation in steady state), plus a *near ring* that keeps the
//!   delta/epsilon events of the current physical instant out of the heap
//!   entirely — the overwhelmingly common zero-delay drive costs a small
//!   vector scan instead of a `BTreeMap` rebalance.
//! * **Dense state** ([`SchedCore`]): signal values, pending-drive
//!   counters, entity sensitivity, and process watch lists are flat
//!   vectors indexed by *resolved* [`SignalId`]s; nothing on the
//!   per-event path hashes.
//! * **Change short-circuiting**: a drive that would re-write a signal's
//!   current value is dropped before it is enqueued (when provably
//!   unobservable, see [`SchedCore::schedule_drive`]), and instances are
//!   only re-activated when a signal they watch actually *changes* value,
//!   not merely when it is driven.
//!
//! # Determinism and fairness
//!
//! When several drives to the same signal land in the same simulation
//! instant, **the last scheduled drive wins**: buckets replay drives in
//! the exact order the running instances scheduled them, and instances
//! run in a deterministic order (entities in sensitivity registration
//! order per changed signal, changed signals in first-change order,
//! followed by timed wake-ups in scheduling order). Two independent
//! processes driving one signal at the same instant therefore resolve
//! deterministically to the value driven by the process that executed
//! last — there is no hash-iteration nondeterminism anywhere in the
//! scheduler. Both engines share this code, which is what makes their
//! traces byte-identical (see the differential test in `llhd-designs`).

use crate::design::{SignalId, SignalInfo};
use crate::engine::{SimConfig, SimError};
use crate::trace::{Trace, TraceEvent};
use llhd::bitcode::{decode_const_value, encode_const_value, read_varint, write_varint};
use llhd::ir::{Module, Opcode};
use llhd::value::{ConstValue, TimeValue};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

// ---------------------------------------------------------------------------
// Snapshot primitives
// ---------------------------------------------------------------------------
//
// The checkpoint format (see `api::EngineState`) reuses the bitcode
// varint + constant codec; these helpers add the few shapes the scheduler
// needs on top. The readers turn truncated or undecodable input into a
// `SimError`, never a panic; executors decode their per-instance sections
// with the same ones.

pub(crate) fn write_time(out: &mut Vec<u8>, t: &TimeValue) {
    write_varint(out, t.as_femtos());
    write_varint(out, t.delta() as u128);
    write_varint(out, t.epsilon() as u128);
}

pub(crate) fn read_time(bytes: &[u8], pos: &mut usize) -> Result<TimeValue, SimError> {
    let femtos = read_u128(bytes, pos)?;
    let delta = read_usize(bytes, pos)? as u32;
    let epsilon = read_usize(bytes, pos)? as u32;
    Ok(TimeValue::new(femtos, delta, epsilon))
}

pub(crate) fn read_u128(bytes: &[u8], pos: &mut usize) -> Result<u128, SimError> {
    read_varint(bytes, pos)
        .ok_or_else(|| SimError::Runtime("truncated engine checkpoint".to_string()))
}

/// Read a varint as a `usize`.
///
/// # Errors
///
/// Returns [`SimError::Runtime`] on truncated input.
pub fn read_usize(bytes: &[u8], pos: &mut usize) -> Result<usize, SimError> {
    Ok(read_u128(bytes, pos)? as usize)
}

/// Read one constant in the bitcode constant encoding.
///
/// # Errors
///
/// Returns [`SimError::Runtime`] on truncated or malformed input.
pub fn read_const(bytes: &[u8], pos: &mut usize) -> Result<ConstValue, SimError> {
    decode_const_value(bytes, pos)
        .map_err(|e| SimError::Runtime(format!("corrupt engine checkpoint: {}", e)))
}

/// Read one byte.
///
/// # Errors
///
/// Returns [`SimError::Runtime`] on truncated input.
pub fn read_byte(bytes: &[u8], pos: &mut usize) -> Result<u8, SimError> {
    let b = *bytes
        .get(*pos)
        .ok_or_else(|| SimError::Runtime("truncated engine checkpoint".to_string()))?;
    *pos += 1;
    Ok(b)
}

/// Whether two values have the same type structure: variant, widths and
/// lengths, recursively. A signal's value keeps one shape for its whole
/// life, so a checkpointed value of any other shape is corrupt (and
/// would panic the width-checked `ApInt` operators a step later).
fn same_shape(a: &ConstValue, b: &ConstValue) -> bool {
    use ConstValue::*;
    match (a, b) {
        (Void, Void) | (Time(_), Time(_)) => true,
        (Int(x), Int(y)) => x.width() == y.width(),
        (Enum { states: x, .. }, Enum { states: y, .. }) => x == y,
        (Logic(x), Logic(y)) => x.width() == y.width(),
        (Array(x), Array(y)) | (Struct(x), Struct(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_shape(p, q))
        }
        _ => false,
    }
}

/// The events scheduled for one simulation instant.
///
/// Buckets are owned by the [`EventQueue`] and recycled through a free
/// list, so their `Vec` capacities survive across instants.
#[derive(Default, Clone, Debug)]
pub struct EventBucket {
    /// Scheduled signal updates, in scheduling order (last writer wins).
    pub drives: Vec<(SignalId, ConstValue)>,
    /// Timed process wake-ups as `(instance, wait token)`.
    pub wakes: Vec<(u32, u64)>,
}

impl EventBucket {
    fn is_empty(&self) -> bool {
        self.drives.is_empty() && self.wakes.is_empty()
    }
}

/// A two-level calendar event queue ordered by [`TimeValue`].
///
/// Future physical instants live in a binary min-heap; events within the
/// *current* physical instant (delta/epsilon steps) take an O(1) fast
/// path through a small unsorted ring. Every entry carries a monotonic
/// sequence number, so several buckets that end up at the same timestamp
/// are replayed in creation order — scheduling order is preserved
/// end-to-end, which the last-writer-wins drive semantics rely on.
#[derive(Default)]
pub struct EventQueue {
    buckets: Vec<EventBucket>,
    free: Vec<u32>,
    /// Pending future instants as `Reverse((time, seq, bucket))`.
    heap: BinaryHeap<Reverse<(TimeValue, u64, u32)>>,
    /// Pending instants within the current physical time: `(time, seq, bucket)`.
    near: Vec<(TimeValue, u64, u32)>,
    /// The physical component of the current instant (what `near` keys on).
    near_femtos: u128,
    /// Cache of the most recently scheduled instant, so bursts of events
    /// for one timestamp append to one bucket without any search.
    last: Option<(TimeValue, u32)>,
    seq: u64,
    events: usize,
    /// Scratch for merging same-timestamp buckets at pop time.
    merge: Vec<(u64, u32)>,
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// The number of pending events (drives plus wakes).
    pub fn len(&self) -> usize {
        self.events
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// The number of buckets ever allocated. Stays flat once the design's
    /// steady-state instant fan-out is reached — pops recycle buckets
    /// through the free list.
    pub fn allocated_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The earliest pending instant, if any.
    pub fn next_time(&self) -> Option<TimeValue> {
        let near = self.near.iter().map(|&(t, _, _)| t).min();
        let far = self.heap.peek().map(|&Reverse((t, _, _))| t);
        match (near, far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn alloc(&mut self) -> u32 {
        match self.free.pop() {
            Some(b) => b,
            None => {
                self.buckets.push(EventBucket::default());
                (self.buckets.len() - 1) as u32
            }
        }
    }

    fn bucket_at(&mut self, at: TimeValue) -> u32 {
        if let Some((t, b)) = self.last {
            if t == at {
                return b;
            }
        }
        let bucket = if at.as_femtos() == self.near_femtos {
            match self.near.iter().find(|&&(t, _, _)| t == at) {
                Some(&(_, _, b)) => b,
                None => {
                    let b = self.alloc();
                    self.seq += 1;
                    self.near.push((at, self.seq, b));
                    b
                }
            }
        } else {
            let b = self.alloc();
            self.seq += 1;
            self.heap.push(Reverse((at, self.seq, b)));
            b
        };
        self.last = Some((at, bucket));
        bucket
    }

    /// Schedule a drive of `signal` to `value` at the absolute time `at`.
    pub fn schedule_drive(&mut self, at: TimeValue, signal: SignalId, value: ConstValue) {
        let b = self.bucket_at(at);
        self.buckets[b as usize].drives.push((signal, value));
        self.events += 1;
    }

    /// Schedule a timed wake-up of `instance` (guarded by `token`) at the
    /// absolute time `at`.
    pub fn schedule_wake(&mut self, at: TimeValue, instance: u32, token: u64) {
        let b = self.bucket_at(at);
        self.buckets[b as usize].wakes.push((instance, token));
        self.events += 1;
    }

    /// Pop *all* events of the earliest pending instant, appending them to
    /// `drives` and `wakes` in scheduling order, and return that instant.
    /// The drained buckets return to the free list.
    pub fn pop_next(
        &mut self,
        drives: &mut Vec<(SignalId, ConstValue)>,
        wakes: &mut Vec<(u32, u64)>,
    ) -> Option<TimeValue> {
        let t = self.next_time()?;
        if self.last.is_some_and(|(lt, _)| lt == t) {
            self.last = None;
        }
        // Entering a new physical instant: the near ring is necessarily
        // empty (all its entries would precede `t`), so re-key it.
        self.near_femtos = t.as_femtos();
        let mut merge = std::mem::take(&mut self.merge);
        merge.clear();
        let mut i = 0;
        while i < self.near.len() {
            if self.near[i].0 == t {
                let (_, seq, b) = self.near.swap_remove(i);
                merge.push((seq, b));
            } else {
                i += 1;
            }
        }
        while let Some(&Reverse((ht, seq, b))) = self.heap.peek() {
            if ht != t {
                break;
            }
            self.heap.pop();
            merge.push((seq, b));
        }
        // Replay buckets in creation order so scheduling order survives
        // the merge of same-timestamp buckets.
        merge.sort_unstable_by_key(|&(seq, _)| seq);
        for &(_, b) in &merge {
            let bucket = &mut self.buckets[b as usize];
            self.events -= bucket.drives.len() + bucket.wakes.len();
            drives.append(&mut bucket.drives);
            wakes.append(&mut bucket.wakes);
            debug_assert!(bucket.is_empty());
            self.free.push(b);
        }
        self.merge = merge;
        Some(t)
    }
}

/// Whether enqueue-time drive dropping is sound for this module.
///
/// The short-circuit in [`SchedCore::schedule_drive`] drops a drive that
/// targets the *next delta step* and re-writes the signal's current value,
/// provided no other drive of that signal is pending. The only events that
/// could sneak in between "now" and the next delta step are epsilon-delay
/// events, and every runtime delay originates from a `const time`
/// instruction (time arithmetic can only add such constants), so a module
/// whose time constants all have a zero epsilon component can never
/// observe the drop.
pub fn module_allows_drive_dropping(module: &Module) -> bool {
    for id in module.units() {
        let unit = module.unit(id);
        for block in unit.blocks() {
            for inst in unit.insts(block) {
                let data = unit.inst_data(inst);
                if data.opcode == Opcode::Const {
                    if let Some(ConstValue::Time(t)) = &data.konst {
                        if t.epsilon() > 0 {
                            return false;
                        }
                    }
                }
            }
        }
    }
    true
}

/// The engine-independent scheduling state: signal values, the event
/// queue, sensitivity, tracing, and the delta-cycle guard.
///
/// Engines drive it in a simple loop:
///
/// 1. run every instance once for initialization (processes suspend via
///    [`SchedCore::suspend`], drives go through
///    [`SchedCore::schedule_drive`]),
/// 2. call [`SchedCore::next_cycle`] to advance to the next instant; it
///    applies the instant's drives, records the trace, and fills `to_run`
///    with the instances to activate,
/// 3. activate them, repeat until `next_cycle` returns `false`.
///
/// All [`SignalId`]s passed to the core must be **resolved** (through
/// [`ElaboratedDesign::resolve`](crate::design::ElaboratedDesign::resolve));
/// engines pre-resolve their per-instance signal tables at
/// elaboration/compile time so the runtime never chases aliases.
pub struct SchedCore {
    max_time: TimeValue,
    max_deltas_per_instant: u32,
    queue: EventQueue,
    time: TimeValue,
    /// Current value of every signal, by resolved id.
    values: Vec<ConstValue>,
    /// Pending (scheduled but not yet applied) drive count per signal.
    pending: Vec<u32>,
    /// Whether enqueue-time drive dropping is sound for this design.
    allow_drop: bool,
    /// Per signal: whether changes are recorded (trace filter, applied once).
    traced: Vec<bool>,
    /// Static sensitivity: resolved signal -> entity instances.
    sensitivity: Vec<Vec<u32>>,
    /// Dynamic sensitivity: resolved signal -> suspended `(process, token)`.
    watchers: Vec<Vec<(u32, u64)>>,
    /// Per instance: currently suspended in a wait.
    waiting: Vec<bool>,
    /// Per instance: current wait token (stale wake-ups are ignored).
    token: Vec<u64>,
    /// Per instance: epoch of the last `to_run` enqueue (dedup).
    run_stamp: Vec<u32>,
    /// Per signal: epoch of the last change (dedup within an instant).
    change_stamp: Vec<u32>,
    epoch: u32,
    trace: Trace,
    signal_changes: usize,
    deltas_in_instant: u32,
    last_physical: u128,
    drives_buf: Vec<(SignalId, ConstValue)>,
    wakes_buf: Vec<(u32, u64)>,
}

impl SchedCore {
    /// Create a core for `signals` (the elaborated signal table) and
    /// `num_instances` unit instances. `allow_drop` enables the
    /// enqueue-time drive short-circuit; pass the result of
    /// [`module_allows_drive_dropping`] for the module being simulated.
    pub fn new(
        config: &SimConfig,
        signals: &[SignalInfo],
        num_instances: usize,
        allow_drop: bool,
    ) -> Self {
        let values: Vec<ConstValue> = signals.iter().map(|s| s.init.clone()).collect();
        let names: Vec<String> = signals.iter().map(|s| s.name.clone()).collect();
        let traced = names
            .iter()
            .map(|name| {
                config.trace
                    && match &config.trace_filter {
                        None => true,
                        Some(filter) => filter
                            .iter()
                            .any(|f| name == f || name.ends_with(&format!(".{}", f))),
                    }
            })
            .collect();
        let n = signals.len();
        SchedCore {
            max_time: config.max_time,
            max_deltas_per_instant: config.max_deltas_per_instant,
            queue: EventQueue::new(),
            time: TimeValue::ZERO,
            values,
            pending: vec![0; n],
            allow_drop,
            traced,
            sensitivity: vec![Vec::new(); n],
            watchers: vec![Vec::new(); n],
            waiting: vec![false; num_instances],
            token: vec![0; num_instances],
            run_stamp: vec![0; num_instances],
            change_stamp: vec![0; n],
            epoch: 0,
            // The trace interns the signal names once, indexed by resolved
            // signal id; recording a change is then an id-stamped push with
            // no string work (see `Trace::record_id`).
            trace: Trace::with_names(names),
            signal_changes: 0,
            deltas_in_instant: 0,
            last_physical: 0,
            drives_buf: Vec::new(),
            wakes_buf: Vec::new(),
        }
    }

    /// Register `instance` (an entity) as statically sensitive to `signal`.
    pub fn add_entity_sensitivity(&mut self, signal: SignalId, instance: usize) {
        let list = &mut self.sensitivity[signal.0];
        if list.last() != Some(&(instance as u32)) {
            list.push(instance as u32);
        }
    }

    /// The current simulation time.
    pub fn time(&self) -> TimeValue {
        self.time
    }

    /// The current value of a (resolved) signal.
    pub fn value(&self, signal: SignalId) -> &ConstValue {
        &self.values[signal.0]
    }

    /// The number of observed signal value changes so far.
    pub fn signal_changes(&self) -> usize {
        self.signal_changes
    }

    /// Take the recorded trace out of the core, leaving a fresh trace
    /// over the same interned name table so recording stays valid if the
    /// engine keeps stepping after a result snapshot.
    pub fn take_trace(&mut self) -> Trace {
        let names = self.trace.shared_names();
        std::mem::replace(&mut self.trace, Trace::with_shared_names(names))
    }

    /// Move the events recorded since the last drain into `buf`, leaving
    /// the trace's interned name table in place so recording continues.
    /// Streaming trace sinks pull events through this after every step.
    pub fn drain_trace_into(&mut self, buf: &mut Vec<crate::trace::TraceEvent>) {
        self.trace.drain_events_into(buf);
    }


    /// The absolute time `delay` from now, clamped forward to the next
    /// delta step so no event can be scheduled at or before the present.
    fn event_time(&self, delay: &TimeValue) -> TimeValue {
        let at = self.time.advance_by(delay);
        if at <= self.time {
            self.time.advance_by(&TimeValue::from_delta(1))
        } else {
            at
        }
    }

    /// Schedule a drive of `signal` to `value` after `delay`.
    ///
    /// Drives that re-write the signal's current value are dropped before
    /// enqueueing when the drop is unobservable: the drive must target the
    /// immediately next delta step (nothing can execute in between, given
    /// the design schedules no epsilon-delay events), and no other drive
    /// of the signal may be pending (a pending drive could change the
    /// value first, or — if it targets the same instant — must still lose
    /// to this one under last-writer-wins).
    pub fn schedule_drive(&mut self, signal: SignalId, value: ConstValue, delay: &TimeValue) {
        let at = self.event_time(delay);
        if self.allow_drop
            && self.pending[signal.0] == 0
            && at.as_femtos() == self.time.as_femtos()
            && at.delta() == self.time.delta() + 1
            && at.epsilon() == 0
            && self.values[signal.0] == value
        {
            return;
        }
        self.pending[signal.0] += 1;
        self.queue.schedule_drive(at, signal, value);
    }

    /// Suspend `instance` until one of the `observed` signals changes or
    /// the optional `timeout` expires. Returns nothing; the instance shows
    /// up in a later `next_cycle` batch when it wakes.
    pub fn suspend(&mut self, instance: usize, observed: &[SignalId], timeout: Option<&TimeValue>) {
        self.token[instance] += 1;
        let token = self.token[instance];
        self.waiting[instance] = true;
        for &sig in observed {
            let Self {
                watchers,
                waiting,
                token: tokens,
                ..
            } = self;
            let list = &mut watchers[sig.0];
            // Bound the stale-entry build-up on rarely-changing signals.
            if list.len() >= 64 {
                list.retain(|&(i, t)| waiting[i as usize] && tokens[i as usize] == t);
            }
            list.push((instance as u32, token));
        }
        if let Some(delay) = timeout {
            let at = self.event_time(delay);
            self.queue.schedule_wake(at, instance as u32, token);
        }
    }

    /// Advance to the next instant: pop its events, apply the drives
    /// (recording changes into the trace), and fill `to_run` with the
    /// instances to activate, in deterministic order. Returns `false`
    /// when the queue is exhausted or the next instant lies beyond the
    /// configured end time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Runtime`] when the delta-cycle limit within one
    /// physical instant is exceeded.
    pub fn next_cycle(&mut self, to_run: &mut Vec<u32>) -> Result<bool, SimError> {
        to_run.clear();
        let event_time = match self.queue.next_time() {
            Some(t) => t,
            None => return Ok(false),
        };
        if event_time > self.max_time {
            return Ok(false);
        }
        let mut drives = std::mem::take(&mut self.drives_buf);
        let mut wakes = std::mem::take(&mut self.wakes_buf);
        drives.clear();
        wakes.clear();
        self.queue.pop_next(&mut drives, &mut wakes);

        // Guard against unbounded delta cycles within one physical instant.
        if event_time.as_femtos() == self.last_physical {
            self.deltas_in_instant += 1;
            if self.deltas_in_instant > self.max_deltas_per_instant {
                return Err(SimError::Runtime(format!(
                    "delta cycle limit exceeded at {}",
                    event_time
                )));
            }
        } else {
            self.last_physical = event_time.as_femtos();
            self.deltas_in_instant = 0;
        }
        self.time = event_time;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely long runs wrap the epoch; reset the stamps to 0,
            // which is never used as an epoch (the wrap skips it), so no
            // stale stamp can ever alias a live epoch.
            self.run_stamp.iter_mut().for_each(|s| *s = 0);
            self.change_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        let epoch = self.epoch;

        for (signal, value) in drives.drain(..) {
            let s = signal.0;
            self.pending[s] -= 1;
            if self.values[s] == value {
                continue;
            }
            self.values[s] = value.clone();
            self.signal_changes += 1;
            if self.traced[s] {
                self.trace.record_id(event_time, s as u32, value);
            }
            if self.change_stamp[s] == epoch {
                continue;
            }
            self.change_stamp[s] = epoch;
            // Entities statically sensitive to this signal.
            for &inst in &self.sensitivity[s] {
                if self.run_stamp[inst as usize] != epoch {
                    self.run_stamp[inst as usize] = epoch;
                    to_run.push(inst);
                }
            }
            // Processes currently waiting on it. Every live entry wakes,
            // and dead entries are stale, so the whole list drains.
            for (inst, token) in self.watchers[s].drain(..) {
                let i = inst as usize;
                if self.waiting[i] && self.token[i] == token {
                    self.waiting[i] = false;
                    if self.run_stamp[i] != epoch {
                        self.run_stamp[i] = epoch;
                        to_run.push(inst);
                    }
                }
            }
        }
        for (inst, token) in wakes.drain(..) {
            let i = inst as usize;
            if self.waiting[i] && self.token[i] == token {
                self.waiting[i] = false;
                if self.run_stamp[i] != epoch {
                    self.run_stamp[i] = epoch;
                    to_run.push(inst);
                }
            }
        }
        self.drives_buf = drives;
        self.wakes_buf = wakes;
        Ok(true)
    }

    /// The trace events recorded since the last drain, without consuming
    /// them (checkpointing serializes these so a restored engine's final
    /// trace is byte-identical to an uninterrupted run's).
    pub fn trace_events(&self) -> &[TraceEvent] {
        self.trace.events()
    }

    /// Serialize the core's complete dynamic state — time, signal values,
    /// pending counters, wait registrations, undrained trace events, and
    /// the event queue — into `out`. Static state (sensitivity lists,
    /// trace filters, limits) is *not* included: it is a pure function of
    /// design + config and is rebuilt by engine construction, which is
    /// why [`SchedCore::restore_snapshot`] requires a core built over the
    /// same design with the same config.
    pub fn snapshot(&self, out: &mut Vec<u8>) {
        write_time(out, &self.time);
        write_varint(out, self.values.len() as u128);
        for value in &self.values {
            encode_const_value(out, value);
        }
        for &pending in &self.pending {
            write_varint(out, pending as u128);
        }
        for list in &self.watchers {
            write_varint(out, list.len() as u128);
            for &(inst, token) in list {
                write_varint(out, inst as u128);
                write_varint(out, token as u128);
            }
        }
        write_varint(out, self.waiting.len() as u128);
        for &waiting in &self.waiting {
            out.push(waiting as u8);
        }
        for &token in &self.token {
            write_varint(out, token as u128);
        }
        write_varint(out, self.signal_changes as u128);
        write_varint(out, self.deltas_in_instant as u128);
        write_varint(out, self.last_physical);
        let events = self.trace.events();
        write_varint(out, events.len() as u128);
        for event in events {
            write_time(out, &event.time);
            write_varint(out, event.signal as u128);
            encode_const_value(out, &event.value);
        }
        // The event queue: every pending instant as (placement, time, seq,
        // drives, wakes), in sequence order. Placement (near ring vs.
        // heap) is recorded because two buckets at the *same* timestamp
        // can live on different sides, and `bucket_at` appends to a found
        // near bucket but never searches the heap — replaying placement
        // keeps future same-instant scheduling byte-identical.
        let mut entries: Vec<(u64, TimeValue, u32, bool)> = self
            .queue
            .near
            .iter()
            .map(|&(t, seq, b)| (seq, t, b, true))
            .chain(
                self.queue
                    .heap
                    .iter()
                    .map(|&Reverse((t, seq, b))| (seq, t, b, false)),
            )
            .collect();
        entries.sort_unstable_by_key(|&(seq, _, _, _)| seq);
        write_varint(out, self.queue.seq as u128);
        write_varint(out, entries.len() as u128);
        for (seq, time, bucket, near) in entries {
            out.push(near as u8);
            write_time(out, &time);
            write_varint(out, seq as u128);
            let bucket = &self.queue.buckets[bucket as usize];
            write_varint(out, bucket.drives.len() as u128);
            for (signal, value) in &bucket.drives {
                write_varint(out, signal.0 as u128);
                encode_const_value(out, value);
            }
            write_varint(out, bucket.wakes.len() as u128);
            for &(inst, token) in &bucket.wakes {
                write_varint(out, inst as u128);
                write_varint(out, token as u128);
            }
        }
    }

    /// Restore a [`SchedCore::snapshot`] into this core, replacing all
    /// dynamic state. The core must have been built over the same design
    /// (same signal and instance counts) with the same config; otherwise
    /// an error is returned and the core is left in an unspecified state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Runtime`] on truncated or mismatching input.
    pub fn restore_snapshot(&mut self, bytes: &[u8], pos: &mut usize) -> Result<(), SimError> {
        fn corrupt(what: &str) -> SimError {
            SimError::Runtime(format!("corrupt engine checkpoint: {}", what))
        }
        let time = read_time(bytes, pos)?;
        let num_signals = read_usize(bytes, pos)?;
        if num_signals != self.values.len() {
            return Err(SimError::Runtime(format!(
                "checkpoint is for a design with {} signals, this design has {}",
                num_signals,
                self.values.len()
            )));
        }
        let num_instances = self.waiting.len();
        // Every id and value below comes from outside the program: ids
        // are bound-checked and values must keep their signal's shape.
        let read_signal_value = |values: &[ConstValue], signal: usize, pos: &mut usize| {
            let value = read_const(bytes, pos)?;
            if !same_shape(&value, &values[signal]) {
                return Err(corrupt("value does not match its signal's type"));
            }
            Ok(value)
        };
        self.time = time;
        for s in 0..num_signals {
            self.values[s] = read_signal_value(&self.values, s, pos)?;
        }
        for pending in &mut self.pending {
            *pending = read_usize(bytes, pos)? as u32;
        }
        for list in &mut self.watchers {
            let n = read_usize(bytes, pos)?;
            list.clear();
            list.reserve(n.min(4096));
            for _ in 0..n {
                let inst = read_usize(bytes, pos)?;
                if inst >= num_instances {
                    return Err(corrupt("watcher instance out of range"));
                }
                let token = read_u128(bytes, pos)? as u64;
                list.push((inst as u32, token));
            }
        }
        let stored_instances = read_usize(bytes, pos)?;
        if stored_instances != num_instances {
            return Err(SimError::Runtime(format!(
                "checkpoint is for a design with {} instances, this design has {}",
                stored_instances, num_instances
            )));
        }
        for waiting in &mut self.waiting {
            *waiting = read_byte(bytes, pos)? != 0;
        }
        for token in &mut self.token {
            *token = read_u128(bytes, pos)? as u64;
        }
        self.signal_changes = read_usize(bytes, pos)?;
        self.deltas_in_instant = read_usize(bytes, pos)? as u32;
        self.last_physical = read_u128(bytes, pos)?;
        // Dedup stamps are meaningful only *within* one `next_cycle`; at a
        // checkpoint boundary they are stale by construction, so restore
        // resets them to 0 (never used as an epoch — the wrap skips it).
        self.epoch = 0;
        self.run_stamp.iter_mut().for_each(|s| *s = 0);
        self.change_stamp.iter_mut().for_each(|s| *s = 0);
        let num_events = read_usize(bytes, pos)?;
        self.trace = Trace::with_shared_names(self.trace.shared_names());
        for _ in 0..num_events {
            let time = read_time(bytes, pos)?;
            let signal = read_usize(bytes, pos)?;
            if signal >= num_signals {
                return Err(corrupt("trace signal out of range"));
            }
            let value = read_signal_value(&self.values, signal, pos)?;
            self.trace.record_id(time, signal as u32, value);
        }
        let queue_seq = read_u128(bytes, pos)? as u64;
        let num_entries = read_usize(bytes, pos)?;
        self.queue = EventQueue::new();
        self.queue.seq = queue_seq;
        self.queue.near_femtos = self.time.as_femtos();
        // `next_cycle` decrements a signal's pending counter once per
        // popped drive, so the restored counters must equal the queued
        // drives exactly.
        let mut queued = vec![0u32; num_signals];
        for _ in 0..num_entries {
            let near = read_byte(bytes, pos)? != 0;
            let entry_time = read_time(bytes, pos)?;
            let seq = read_u128(bytes, pos)? as u64;
            let mut bucket = EventBucket::default();
            let num_drives = read_usize(bytes, pos)?;
            for _ in 0..num_drives {
                let signal = read_usize(bytes, pos)?;
                if signal >= num_signals {
                    return Err(corrupt("drive signal out of range"));
                }
                let value = read_signal_value(&self.values, signal, pos)?;
                queued[signal] += 1;
                bucket.drives.push((SignalId(signal), value));
            }
            let num_wakes = read_usize(bytes, pos)?;
            for _ in 0..num_wakes {
                let inst = read_usize(bytes, pos)?;
                if inst >= num_instances {
                    return Err(corrupt("wake instance out of range"));
                }
                let token = read_u128(bytes, pos)? as u64;
                bucket.wakes.push((inst as u32, token));
            }
            self.queue.events += bucket.drives.len() + bucket.wakes.len();
            let b = self.queue.buckets.len() as u32;
            self.queue.buckets.push(bucket);
            if near {
                self.queue.near.push((entry_time, seq, b));
            } else {
                self.queue.heap.push(Reverse((entry_time, seq, b)));
            }
        }
        if queued != self.pending {
            return Err(corrupt("pending-drive counters do not match the event queue"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(i: usize) -> SignalId {
        SignalId(i)
    }

    fn v(x: u64) -> ConstValue {
        ConstValue::int(16, x)
    }

    #[test]
    fn pops_in_time_delta_epsilon_order() {
        let mut q = EventQueue::new();
        let times = [
            TimeValue::new(2_000, 0, 0),
            TimeValue::new(1_000, 1, 0),
            TimeValue::new(1_000, 0, 1),
            TimeValue::new(1_000, 0, 0),
            TimeValue::new(1_000, 1, 2),
            TimeValue::new(3_000, 0, 0),
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule_drive(t, sig(i), v(i as u64));
        }
        let mut popped = vec![];
        let (mut drives, mut wakes) = (vec![], vec![]);
        while let Some(t) = q.pop_next(&mut drives, &mut wakes) {
            popped.push(t);
        }
        let mut sorted = times.to_vec();
        sorted.sort();
        assert_eq!(popped, sorted);
        assert_eq!(drives.len(), times.len());
        assert!(q.is_empty());
    }

    #[test]
    fn same_instant_events_batch_into_one_pop() {
        let mut q = EventQueue::new();
        let t = TimeValue::new(5_000, 0, 0);
        let u = TimeValue::new(9_000, 0, 0);
        // Interleave two timestamps so `t` accumulates several buckets.
        q.schedule_drive(t, sig(0), v(1));
        q.schedule_drive(u, sig(9), v(9));
        q.schedule_drive(t, sig(1), v(2));
        q.schedule_wake(t, 7, 42);
        q.schedule_drive(t, sig(2), v(3));
        assert_eq!(q.len(), 5);
        let (mut drives, mut wakes) = (vec![], vec![]);
        assert_eq!(q.pop_next(&mut drives, &mut wakes), Some(t));
        // All four `t` events arrive in one pop, in scheduling order.
        assert_eq!(
            drives.iter().map(|&(s, _)| s.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(wakes, vec![(7, 42)]);
        drives.clear();
        wakes.clear();
        assert_eq!(q.pop_next(&mut drives, &mut wakes), Some(u));
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn near_fast_path_handles_current_instant_deltas() {
        let mut q = EventQueue::new();
        let t0 = TimeValue::new(1_000, 0, 0);
        q.schedule_drive(t0, sig(0), v(0));
        let (mut drives, mut wakes) = (vec![], vec![]);
        assert_eq!(q.pop_next(&mut drives, &mut wakes), Some(t0));
        // Delta and epsilon steps within the same femtosecond pop in order.
        let d1 = TimeValue::new(1_000, 1, 0);
        let e1 = TimeValue::new(1_000, 0, 1);
        q.schedule_drive(d1, sig(1), v(1));
        q.schedule_drive(e1, sig(2), v(2));
        drives.clear();
        assert_eq!(q.pop_next(&mut drives, &mut wakes), Some(e1));
        drives.clear();
        assert_eq!(q.pop_next(&mut drives, &mut wakes), Some(d1));
        assert!(q.is_empty());
    }

    #[test]
    fn buckets_are_reused_after_pops() {
        let mut q = EventQueue::new();
        let (mut drives, mut wakes) = (vec![], vec![]);
        // A clock-like workload: one instant in flight at a time.
        for step in 0..1_000u64 {
            q.schedule_drive(
                TimeValue::new(1_000 * (step as u128 + 1), 0, 0),
                sig(0),
                v(step),
            );
            drives.clear();
            q.pop_next(&mut drives, &mut wakes).unwrap();
            assert_eq!(drives.len(), 1);
        }
        assert!(
            q.allocated_buckets() <= 2,
            "buckets must be recycled, got {}",
            q.allocated_buckets()
        );
    }

    #[test]
    fn merged_same_time_buckets_preserve_scheduling_order() {
        let mut q = EventQueue::new();
        let t = TimeValue::new(4_000, 2, 0);
        // Alternate with another time so the `last` cache misses and `t`
        // gets several distinct buckets (heap path).
        for i in 0..6u64 {
            q.schedule_drive(t, sig(0), v(i));
            q.schedule_drive(TimeValue::new(8_000, 0, 0), sig(1), v(i));
        }
        let (mut drives, mut wakes) = (vec![], vec![]);
        assert_eq!(q.pop_next(&mut drives, &mut wakes), Some(t));
        let order: Vec<_> = drives.iter().map(|(_, val)| val.clone()).collect();
        assert_eq!(order, (0..6).map(v).collect::<Vec<_>>());
    }
}
