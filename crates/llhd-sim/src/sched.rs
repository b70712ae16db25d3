//! The shared hot-path scheduling core of both simulation engines.
//!
//! The reference interpreter ([`Simulator`](crate::engine::Simulator)) and
//! the compiled simulator ([`blaze`](crate::blaze)) execute unit bodies
//! very differently, but share the exact same event-driven scheduling model.
//! This module implements that model once, tuned for the hot path:
//!
//! * **Calendar event queue** ([`EventQueue`]): a binary min-heap over
//!   pending instants whose event payloads live in free-listed buckets
//!   of 16-byte drive records that are reused across pops (no per-instant
//!   allocation in steady state), plus a *near ring* that keeps the
//!   delta/epsilon events of the current physical instant out of the heap
//!   entirely — the overwhelmingly common zero-delay drive costs a small
//!   vector scan instead of a `BTreeMap` rebalance.
//! * **Dense state** ([`SchedCore`]): signal values, pending-drive
//!   counters, entity sensitivity, and process watch lists are flat
//!   vectors indexed by *resolved* [`SignalId`]s; nothing on the
//!   per-event path hashes. A signal of an `iN` type with N ≤ 64 keeps
//!   its value, and its queued drives, as a `u64` machine word (see
//!   [`SchedCore`]), so the compiled engine's word registers reach it
//!   without building a [`ConstValue`].
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
use llhd::value::{ApInt, ConstValue, TimeValue};
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
    let delta = read_int(bytes, pos)?;
    let epsilon = read_int(bytes, pos)?;
    Ok(TimeValue::new(femtos, delta, epsilon))
}

pub(crate) fn read_u128(bytes: &[u8], pos: &mut usize) -> Result<u128, SimError> {
    read_varint(bytes, pos)
        .ok_or_else(|| SimError::Runtime("truncated engine checkpoint".to_string()))
}

/// Read a varint that must fit a `T`: a larger one is corrupt, never
/// truncated.
fn read_int<T: TryFrom<u128>>(bytes: &[u8], pos: &mut usize) -> Result<T, SimError> {
    T::try_from(read_u128(bytes, pos)?).map_err(|_| {
        SimError::Runtime("corrupt engine checkpoint: number out of range".to_string())
    })
}

/// Read a varint as a `usize`.
///
/// # Errors
///
/// Returns [`SimError::Runtime`] on truncated input or a value past
/// `usize::MAX`.
pub fn read_usize(bytes: &[u8], pos: &mut usize) -> Result<usize, SimError> {
    read_int(bytes, pos)
}

/// Read the length of a list whose every element takes at least one
/// byte, so a length past the bytes that remain is corrupt: no loop or
/// allocation is sized by more than the input holds.
pub(crate) fn read_count(bytes: &[u8], pos: &mut usize) -> Result<usize, SimError> {
    let n = read_usize(bytes, pos)?;
    if n > bytes.len().saturating_sub(*pos) {
        return Err(SimError::Runtime(
            "corrupt engine checkpoint: count past the end of the input".to_string(),
        ));
    }
    Ok(n)
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

/// A popped drive's new value: a machine word for a signal the scheduler
/// keeps in a word (an `iN`, N ≤ 64, see [`SchedCore`]), a value for any
/// other.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Payload {
    /// The masked bits of an integer of the signal's width.
    Word(u64),
    /// Any other value.
    Value(ConstValue),
}

/// One queued drive, 16 bytes: the signal plus either the word itself or
/// the index of the value in its bucket's side list.
#[derive(Clone, Copy, Debug)]
struct QueuedDrive {
    signal: u32,
    /// [`QueuedDrive::WORD`], or the value's index in [`EventBucket::values`].
    value: u32,
    word: u64,
}

impl QueuedDrive {
    const WORD: u32 = u32::MAX;
}

/// The events scheduled for one simulation instant.
///
/// Buckets are owned by the [`EventQueue`] and recycled through a free
/// list, so their `Vec` capacities survive across instants.
#[derive(Default, Clone, Debug)]
struct EventBucket {
    /// Scheduled signal updates, in scheduling order (last writer wins).
    drives: Vec<QueuedDrive>,
    /// The payloads of the value drives, in scheduling order.
    values: Vec<ConstValue>,
    /// Timed process wake-ups as `(instance, wait token)`.
    wakes: Vec<(u32, u64)>,
}

impl EventBucket {
    fn push_word(&mut self, signal: SignalId, word: u64) {
        self.drives.push(QueuedDrive {
            signal: signal.0 as u32,
            value: QueuedDrive::WORD,
            word,
        });
    }

    fn push_value(&mut self, signal: SignalId, value: ConstValue) {
        self.drives.push(QueuedDrive {
            signal: signal.0 as u32,
            value: self.values.len() as u32,
            word: 0,
        });
        self.values.push(value);
    }

    /// Move drive `drive`'s payload out of the bucket.
    fn take(&mut self, drive: QueuedDrive) -> Payload {
        match drive.value {
            QueuedDrive::WORD => Payload::Word(drive.word),
            index => Payload::Value(std::mem::replace(
                &mut self.values[index as usize],
                ConstValue::Void,
            )),
        }
    }

    fn clear(&mut self) {
        self.drives.clear();
        self.values.clear();
        self.wakes.clear();
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
    /// The buckets of the instant popped last as `(seq, bucket)`, in
    /// creation order.
    popped: Vec<(u64, u32)>,
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

    fn bucket_at(&mut self, at: TimeValue) -> &mut EventBucket {
        self.events += 1;
        if let Some((t, b)) = self.last {
            if t == at {
                return &mut self.buckets[b as usize];
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
        &mut self.buckets[bucket as usize]
    }

    /// Schedule a drive of `signal` to `value` at the absolute time `at`.
    pub fn schedule_drive(&mut self, at: TimeValue, signal: SignalId, value: ConstValue) {
        self.bucket_at(at).push_value(signal, value);
    }

    /// Schedule a drive of `signal` to the integer whose bits are `word`
    /// at the absolute time `at`. The queue does not know the signal's
    /// width: the word pops as [`Payload::Word`].
    pub fn schedule_word(&mut self, at: TimeValue, signal: SignalId, word: u64) {
        self.bucket_at(at).push_word(signal, word);
    }

    /// Schedule a timed wake-up of `instance` (guarded by `token`) at the
    /// absolute time `at`.
    pub fn schedule_wake(&mut self, at: TimeValue, instance: u32, token: u64) {
        self.bucket_at(at).wakes.push((instance, token));
    }

    /// Pop *all* events of the earliest pending instant, appending them to
    /// `drives` and `wakes` in scheduling order, and return that instant.
    /// The drained buckets return to the free list.
    pub fn pop_next(
        &mut self,
        drives: &mut Vec<(SignalId, Payload)>,
        wakes: &mut Vec<(u32, u64)>,
    ) -> Option<TimeValue> {
        let t = self.next_time()?;
        self.pop_instant(t);
        for i in 0..self.popped.len() {
            let bucket = &mut self.buckets[self.popped[i].1 as usize];
            for j in 0..bucket.drives.len() {
                let drive = bucket.drives[j];
                drives.push((SignalId(drive.signal as usize), bucket.take(drive)));
            }
            wakes.extend_from_slice(&bucket.wakes);
        }
        self.release_popped();
        Some(t)
    }

    /// Unlink the buckets of instant `t`, the earliest pending one, and
    /// list them in [`EventQueue::popped`] in creation order, so
    /// scheduling order survives the merge of same-timestamp buckets. The
    /// caller consumes them in place, then calls
    /// [`EventQueue::release_popped`].
    fn pop_instant(&mut self, t: TimeValue) {
        if self.last.is_some_and(|(lt, _)| lt == t) {
            self.last = None;
        }
        // Entering a new physical instant: the near ring is necessarily
        // empty (all its entries would precede `t`), so re-key it.
        self.near_femtos = t.as_femtos();
        let popped = &mut self.popped;
        popped.clear();
        let mut i = 0;
        while i < self.near.len() {
            if self.near[i].0 == t {
                let (_, seq, b) = self.near.swap_remove(i);
                popped.push((seq, b));
            } else {
                i += 1;
            }
        }
        while let Some(&Reverse((ht, seq, b))) = self.heap.peek() {
            if ht != t {
                break;
            }
            self.heap.pop();
            popped.push((seq, b));
        }
        if popped.len() > 1 {
            popped.sort_unstable_by_key(|&(seq, _)| seq);
        }
    }

    /// Empty the buckets [`EventQueue::pop_instant`] listed and return
    /// them to the free list.
    fn release_popped(&mut self) {
        for &(_, b) in &self.popped {
            let bucket = &mut self.buckets[b as usize];
            self.events -= bucket.drives.len() + bucket.wakes.len();
            bucket.clear();
            self.free.push(b);
        }
        self.popped.clear();
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
///    [`SchedCore::schedule_drive`] or [`SchedCore::schedule_word`]),
/// 2. call [`SchedCore::next_cycle`] to advance to the next instant; it
///    applies the instant's drives, records the trace, and fills `to_run`
///    with the instances to activate,
/// 3. activate them, repeat until `next_cycle` returns `false`.
///
/// All [`SignalId`]s passed to the core must be **resolved** (through
/// [`ElaboratedDesign::resolve`](crate::design::ElaboratedDesign::resolve));
/// engines pre-resolve their per-instance signal tables at
/// elaboration/compile time so the runtime never chases aliases.
///
/// # Word and value signals
///
/// A signal whose initial value is an `iN` with N ≤ 64 is a *word
/// signal*: its value lives in a `u64` (masked to N bits), and its queued
/// drives carry that word, so probing, driving, comparing and applying it
/// builds no [`ConstValue`]. Every other signal keeps a [`ConstValue`].
/// [`SchedCore::value`] boxes a word at its width, so both kinds read the
/// same from outside; a traced word change is boxed when recorded. A
/// drive of a value of another type than the signal's (only an
/// unverified module can issue one) still applies: the word signal then
/// holds that value, exactly as a value signal would, until an integer of
/// its own width is applied again.
pub struct SchedCore {
    max_time: TimeValue,
    max_deltas_per_instant: u32,
    queue: EventQueue,
    time: TimeValue,
    /// Per signal: the width of a word signal, 0 for a value signal.
    word_width: Vec<u8>,
    /// Per signal: `word_width` while the value is the word in `words`, 0
    /// while it is the value in `values`.
    width: Vec<u8>,
    /// The current value of every word signal, by resolved id.
    words: Vec<u64>,
    /// The current value of every other signal (`Void` for a word signal).
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
}

/// The word width of a signal whose initial value is `init`: N for an
/// `iN` with N ≤ 64, 0 otherwise.
fn word_width_of(init: &ConstValue) -> u8 {
    match init {
        ConstValue::Int(a) if a.width() <= 64 => a.width() as u8,
        _ => 0,
    }
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
        let word_width: Vec<u8> = signals.iter().map(|s| word_width_of(&s.init)).collect();
        let words = signals
            .iter()
            .map(|s| s.init.as_int().map_or(0, ApInt::to_u64))
            .collect();
        let values = signals
            .iter()
            .zip(&word_width)
            .map(|(s, &w)| {
                if w == 0 {
                    s.init.clone()
                } else {
                    ConstValue::Void
                }
            })
            .collect();
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
            width: word_width.clone(),
            word_width,
            words,
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

    /// The current value of a (resolved) signal, a word signal's boxed at
    /// its width.
    pub fn value(&self, signal: SignalId) -> ConstValue {
        let s = signal.0;
        match self.width[s] {
            0 => self.values[s].clone(),
            width => ConstValue::int(usize::from(width), self.words[s]),
        }
    }

    /// The current value of a (resolved) signal as a word: a word signal's
    /// bits, the low 64 bits of any other integer, 0 for any other value.
    #[inline]
    pub fn word(&self, signal: SignalId) -> u64 {
        let s = signal.0;
        match self.width[s] {
            0 => self.values[s].as_int().map_or(0, ApInt::to_u64),
            _ => self.words[s],
        }
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

    /// Whether a drive of `s` at `at` that re-writes its current value may
    /// be dropped (see [`SchedCore::schedule_drive`]).
    #[inline]
    fn may_drop(&self, s: usize, at: TimeValue) -> bool {
        self.allow_drop
            && self.pending[s] == 0
            && at.as_femtos() == self.time.as_femtos()
            && at.delta() == self.time.delta() + 1
            && at.epsilon() == 0
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
    ///
    /// An integer of a word signal's width is queued as a word.
    pub fn schedule_drive(&mut self, signal: SignalId, value: ConstValue, delay: &TimeValue) {
        let s = signal.0;
        if let ConstValue::Int(a) = &value {
            if a.width() == usize::from(self.word_width[s]) {
                return self.queue_word(signal, a.to_u64(), delay);
            }
        }
        let at = self.event_time(delay);
        if self.may_drop(s, at) && self.width[s] == 0 && self.values[s] == value {
            return;
        }
        self.pending[s] += 1;
        self.queue.schedule_drive(at, signal, value);
    }

    /// Schedule a drive of `signal` to the `width`-bit integer whose low
    /// bits are `word` after `delay`: [`SchedCore::schedule_drive`]
    /// without a [`ConstValue`] when `signal` is a word signal of that
    /// width.
    #[inline]
    pub fn schedule_word(&mut self, signal: SignalId, width: u8, word: u64, delay: &TimeValue) {
        let word = word & (u64::MAX >> (64 - u32::from(width.clamp(1, 64))));
        if width != self.word_width[signal.0] {
            return self.schedule_drive(signal, ConstValue::int(usize::from(width), word), delay);
        }
        self.queue_word(signal, word, delay);
    }

    /// Enqueue a word drive of a word signal.
    #[inline]
    fn queue_word(&mut self, signal: SignalId, word: u64, delay: &TimeValue) {
        let s = signal.0;
        let at = self.event_time(delay);
        if self.may_drop(s, at) && self.width[s] != 0 && self.words[s] == word {
            return;
        }
        self.pending[s] += 1;
        self.queue.schedule_word(at, signal, word);
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

    /// Store word `word` into word signal `s`; returns whether its value
    /// changed.
    #[inline]
    fn apply_word(&mut self, s: usize, word: u64) -> bool {
        if self.width[s] == 0 {
            // The signal held a value of another type: any integer of its
            // own width differs from it.
            self.width[s] = self.word_width[s];
            self.values[s] = ConstValue::Void;
        } else if self.words[s] == word {
            return false;
        }
        self.words[s] = word;
        true
    }

    /// Store `value` into signal `s`; returns whether its value changed.
    fn apply_value(&mut self, s: usize, value: ConstValue) -> bool {
        match &value {
            ConstValue::Int(a) if a.width() == usize::from(self.word_width[s]) => {
                return self.apply_word(s, a.to_u64());
            }
            // A word signal holds an integer of its width, which differs
            // from this value.
            _ if self.width[s] != 0 => self.width[s] = 0,
            _ if self.values[s] == value => return false,
            _ => {}
        }
        self.values[s] = value;
        true
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
        self.queue.pop_instant(event_time);
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

        // Every drive of the instant, bucket by bucket in creation order,
        // applied in place; then every wake-up.
        let popped = std::mem::take(&mut self.queue.popped);
        for &(_, b) in &popped {
            let mut bucket = std::mem::take(&mut self.queue.buckets[b as usize]);
            for i in 0..bucket.drives.len() {
                let drive = bucket.drives[i];
                let s = drive.signal as usize;
                self.pending[s] -= 1;
                let changed = match bucket.take(drive) {
                    Payload::Word(word) => self.apply_word(s, word),
                    Payload::Value(value) => self.apply_value(s, value),
                };
                if !changed {
                    continue;
                }
                self.signal_changes += 1;
                if self.traced[s] {
                    let value = self.value(SignalId(s));
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
            self.queue.buckets[b as usize] = bucket;
        }
        for &(_, b) in &popped {
            for &(inst, token) in &self.queue.buckets[b as usize].wakes {
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
        self.queue.popped = popped;
        self.queue.release_popped();
        Ok(true)
    }

    /// The trace events recorded so far, without consuming them
    /// (checkpointing serializes these so a restored engine's final
    /// trace is byte-identical to an uninterrupted run's).
    pub fn trace_events(&self) -> &[TraceEvent] {
        self.trace.events()
    }

    /// Serialize the core's complete dynamic state — time, signal values,
    /// pending counters, wait registrations, recorded trace events, and
    /// the event queue — into `out`. Static state (sensitivity lists,
    /// trace filters, limits) is *not* included: it is a pure function of
    /// design + config and is rebuilt by engine construction, which is
    /// why [`SchedCore::restore_snapshot`] requires a core built over the
    /// same design with the same config. A word — a word signal's value or
    /// a queued word drive — is written as a constant of the signal's
    /// width, so the bytes do not depend on which signals are words.
    pub fn snapshot(&self, out: &mut Vec<u8>) {
        write_time(out, &self.time);
        write_varint(out, self.values.len() as u128);
        for s in 0..self.values.len() {
            encode_const_value(out, &self.value(SignalId(s)));
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
            for drive in &bucket.drives {
                write_varint(out, drive.signal as u128);
                match drive.value {
                    QueuedDrive::WORD => {
                        let width = self.word_width[drive.signal as usize];
                        encode_const_value(out, &ConstValue::int(usize::from(width), drive.word));
                    }
                    index => encode_const_value(out, &bucket.values[index as usize]),
                }
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
        // are bound-checked and values must keep their signal's shape: a
        // word signal's is an integer of its width.
        let read_signal_value = |core: &SchedCore, signal: usize, pos: &mut usize| {
            let value = read_const(bytes, pos)?;
            let shaped = match core.word_width[signal] {
                0 => same_shape(&value, &core.values[signal]),
                width => value
                    .as_int()
                    .is_some_and(|a| a.width() == usize::from(width)),
            };
            if !shaped {
                return Err(corrupt("value does not match its signal's type"));
            }
            Ok(value)
        };
        self.time = time;
        for s in 0..num_signals {
            let value = read_signal_value(self, s, pos)?;
            self.apply_value(s, value);
        }
        for pending in &mut self.pending {
            *pending = read_int(bytes, pos)?;
        }
        for list in &mut self.watchers {
            let n = read_count(bytes, pos)?;
            list.clear();
            list.reserve(n);
            for _ in 0..n {
                let inst = read_usize(bytes, pos)?;
                if inst >= num_instances {
                    return Err(corrupt("watcher instance out of range"));
                }
                list.push((inst as u32, read_int(bytes, pos)?));
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
            *token = read_int(bytes, pos)?;
        }
        self.signal_changes = read_usize(bytes, pos)?;
        self.deltas_in_instant = read_int(bytes, pos)?;
        self.last_physical = read_u128(bytes, pos)?;
        // Dedup stamps are meaningful only *within* one `next_cycle`; at a
        // checkpoint boundary they are stale by construction, so restore
        // resets them to 0 (never used as an epoch — the wrap skips it).
        self.epoch = 0;
        self.run_stamp.iter_mut().for_each(|s| *s = 0);
        self.change_stamp.iter_mut().for_each(|s| *s = 0);
        let num_events = read_count(bytes, pos)?;
        self.trace = Trace::with_shared_names(self.trace.shared_names());
        for _ in 0..num_events {
            let time = read_time(bytes, pos)?;
            let signal = read_usize(bytes, pos)?;
            if signal >= num_signals {
                return Err(corrupt("trace signal out of range"));
            }
            let value = read_signal_value(self, signal, pos)?;
            self.trace.record_id(time, signal as u32, value);
        }
        let queue_seq = read_int(bytes, pos)?;
        let num_entries = read_count(bytes, pos)?;
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
            let seq = read_int(bytes, pos)?;
            let mut bucket = EventBucket::default();
            let num_drives = read_count(bytes, pos)?;
            for _ in 0..num_drives {
                let signal = read_usize(bytes, pos)?;
                if signal >= num_signals {
                    return Err(corrupt("drive signal out of range"));
                }
                let value = read_signal_value(self, signal, pos)?;
                queued[signal] += 1;
                match value {
                    ConstValue::Int(a) if self.word_width[signal] != 0 => {
                        bucket.push_word(SignalId(signal), a.to_u64())
                    }
                    value => bucket.push_value(SignalId(signal), value),
                }
            }
            let num_wakes = read_count(bytes, pos)?;
            for _ in 0..num_wakes {
                let inst = read_usize(bytes, pos)?;
                if inst >= num_instances {
                    return Err(corrupt("wake instance out of range"));
                }
                bucket.wakes.push((inst as u32, read_int(bytes, pos)?));
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
            return Err(corrupt(
                "pending-drive counters do not match the event queue",
            ));
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
        // gets several distinct buckets (heap path), and alternate word
        // and value payloads within them.
        let payload = |i: u64| match i % 2 {
            0 => Payload::Word(i),
            _ => Payload::Value(v(i)),
        };
        for i in 0..6u64 {
            match payload(i) {
                Payload::Word(w) => q.schedule_word(t, sig(0), w),
                Payload::Value(x) => q.schedule_drive(t, sig(0), x),
            }
            q.schedule_drive(TimeValue::new(8_000, 0, 0), sig(1), v(i));
        }
        let (mut drives, mut wakes) = (vec![], vec![]);
        assert_eq!(q.pop_next(&mut drives, &mut wakes), Some(t));
        let order: Vec<_> = drives.iter().map(|(_, val)| val.clone()).collect();
        assert_eq!(order, (0..6).map(payload).collect::<Vec<_>>());
    }

    fn core_over(inits: &[ConstValue], allow_drop: bool) -> SchedCore {
        let signals: Vec<SignalInfo> = inits
            .iter()
            .enumerate()
            .map(|(i, init)| SignalInfo {
                name: format!("s{}", i),
                ty: init.ty(),
                init: init.clone(),
            })
            .collect();
        let config = SimConfig {
            trace: true,
            ..SimConfig::default()
        };
        SchedCore::new(&config, &signals, 1, allow_drop)
    }

    fn run_out(core: &mut SchedCore) {
        let mut to_run = vec![];
        while core.next_cycle(&mut to_run).unwrap() {}
    }

    #[test]
    fn word_signals_read_and_write_like_values() {
        let inits = [ConstValue::int(16, 3), ConstValue::int(80, 3)];
        let mut core = core_over(&inits, true);
        assert_eq!(core.word(sig(0)), 3);
        assert_eq!(core.word(sig(1)), 3);
        let delta = TimeValue::from_delta(1);
        core.schedule_word(sig(0), 16, 0x1_0007, &delta);
        core.schedule_drive(sig(1), ConstValue::int(80, 9), &delta);
        run_out(&mut core);
        // The word keeps its signal's 16 bits.
        assert_eq!(core.value(sig(0)), ConstValue::int(16, 7));
        assert_eq!(core.value(sig(1)), ConstValue::int(80, 9));
        // A drive of the signal's own value to the next delta is dropped
        // before it is queued, as a word or as a value.
        core.schedule_word(sig(0), 16, 7, &delta);
        core.schedule_drive(sig(0), ConstValue::int(16, 7), &delta);
        core.schedule_drive(sig(1), ConstValue::int(80, 9), &delta);
        assert!(core.queue.is_empty());
        let changes: Vec<_> = core
            .trace_events()
            .iter()
            .map(|e| e.value.clone())
            .collect();
        assert_eq!(
            changes,
            vec![ConstValue::int(16, 7), ConstValue::int(80, 9)]
        );
    }

    #[test]
    fn a_word_signal_takes_a_value_of_another_type_and_back() {
        let mut core = core_over(&[ConstValue::int(8, 1)], true);
        let delta = TimeValue::from_delta(1);
        // Another width, as a value and as a word, then the own width.
        core.schedule_drive(sig(0), ConstValue::int(16, 1), &delta);
        run_out(&mut core);
        assert_eq!(core.value(sig(0)), ConstValue::int(16, 1));
        assert_eq!(core.word(sig(0)), 1);
        core.schedule_word(sig(0), 4, 2, &delta);
        run_out(&mut core);
        assert_eq!(core.value(sig(0)), ConstValue::int(4, 2));
        core.schedule_word(sig(0), 8, 2, &delta);
        run_out(&mut core);
        assert_eq!(core.value(sig(0)), ConstValue::int(8, 2));
        core.schedule_drive(sig(0), ConstValue::Void, &delta);
        run_out(&mut core);
        assert_eq!(core.value(sig(0)), ConstValue::Void);
        assert_eq!(core.word(sig(0)), 0);
        assert_eq!(core.signal_changes(), 4);
        // A checkpoint holding a value of another type does not restore.
        let mut bytes = vec![];
        core.snapshot(&mut bytes);
        let mut fresh = core_over(&[ConstValue::int(8, 1)], true);
        assert!(fresh.restore_snapshot(&bytes, &mut 0).is_err());
    }

    #[test]
    fn snapshots_write_words_as_constants_of_their_width() {
        let inits = [ConstValue::int(12, 5), ConstValue::Array(vec![v(1), v(2)])];
        let mut core = core_over(&inits, false);
        let later = TimeValue::from_nanos(1);
        core.schedule_word(sig(0), 12, 6, &later);
        core.schedule_drive(sig(0), ConstValue::int(12, 7), &TimeValue::from_delta(1));
        core.schedule_drive(sig(1), ConstValue::Array(vec![v(3), v(4)]), &later);
        let mut to_run = vec![];
        assert!(core.next_cycle(&mut to_run).unwrap());
        let mut bytes = vec![];
        core.snapshot(&mut bytes);
        // A word and the same constant queued as a value are one byte
        // string: the blob does not say which signals are words.
        let mut pos = 0;
        let mut restored = core_over(&inits, false);
        restored.restore_snapshot(&bytes, &mut pos).unwrap();
        assert_eq!(pos, bytes.len());
        let mut again = vec![];
        restored.snapshot(&mut again);
        assert_eq!(again, bytes);
        let needle = {
            let mut out = vec![];
            encode_const_value(&mut out, &ConstValue::int(12, 6));
            out
        };
        assert!(bytes.windows(needle.len()).any(|w| w == needle));
        run_out(&mut restored);
        run_out(&mut core);
        assert_eq!(restored.value(sig(0)), ConstValue::int(12, 6));
        assert_eq!(restored.trace_events(), core.trace_events());
    }
}
