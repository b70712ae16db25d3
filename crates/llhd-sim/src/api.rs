//! The unified, engine-agnostic simulation surface.
//!
//! The paper positions LLHD as a single substrate that many tools consume
//! interchangeably; this module is the corresponding *API* substrate for
//! simulation. Instead of two divergent entry points (the interpreter's
//! `simulate` and blaze's elaborate/compile plumbing), every consumer —
//! tests, benchmarks, examples, batch drivers, a future server mode —
//! builds a [`SimSession`]:
//!
//! ```
//! use llhd::assembly::parse_module;
//! use llhd_sim::api::{EngineKind, SimSession};
//!
//! let module = parse_module(r#"
//! proc @blink () -> (i1$ %led) {
//! entry:
//!     %on = const i1 1
//!     %off = const i1 0
//!     %delay = const time 5ns
//!     drv i1$ %led, %on after %delay
//!     wait %next for %delay
//! next:
//!     drv i1$ %led, %off after %delay
//!     wait %entry for %delay
//! }
//! "#).unwrap();
//! let result = SimSession::builder(&module, "blink")
//!     .engine(EngineKind::Interpret)
//!     .until_nanos(100)
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(result.trace.changes_of("led").count() >= 18);
//! ```
//!
//! The pieces:
//!
//! * [`Engine`] — the object-safe engine surface, implemented once by
//!   [`Driver`](crate::driver::Driver) for every executor: prepare once,
//!   then `step`/`peek`/`poke` with deterministic resume (a run advanced
//!   in chunks is byte-identical to an uninterrupted one).
//! * [`EngineKind`] — `Interpret`, `Compile`, or `Auto`. The compiled
//!   engine lives in `llhd-blaze`, which cannot be a dependency of this
//!   crate (it already depends on us), so it plugs itself in through
//!   [`register_compile_backend`]; `llhd_blaze::register()` does exactly
//!   that.
//! * [`TraceSink`] — streaming trace consumers fed after every step:
//!   the in-memory [`Trace`], an incremental [`VcdSink`], a [`NullSink`],
//!   and a [`ChangeCounter`].
//! * [`DesignCache`] — memoizes elaborated and compiled designs keyed by
//!   module content hash, so repeat simulations of the same module skip
//!   elaboration and `compile_design` entirely.
//! * [`SimSession::run_batch`] — fans a slice of [`BatchJob`]s across std
//!   threads, one worker per core.

use crate::design::{elaborate, ElaborateError, ElaboratedDesign, SignalId, SignalInfo};
use crate::engine::{RunControl, SimConfig, SimError, SimResult, Simulator};
use crate::trace::{write_vcd_change, Trace, TraceEvent};
use llhd::ir::Module;
use llhd::value::{ConstValue, TimeValue};
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// The one error type of the session API. Crate-specific errors
/// ([`ElaborateError`], [`SimError`], blaze's `CompileError`) convert into
/// it, so callers match on variants instead of crate-specific strings.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Error {
    /// Elaboration of the design failed.
    Elaborate(ElaborateError),
    /// Ahead-of-time compilation failed (compiled engine only).
    Compile(String),
    /// The simulation hit an unsupported construct or ran away.
    Runtime(String),
    /// [`EngineKind::Compile`] was requested but no compile backend is
    /// registered (call `llhd_blaze::register()` first).
    BackendUnavailable(String),
    /// A `peek`/`poke` named a signal the design does not contain.
    UnknownSignal(String),
    /// The run used up its wall-clock budget
    /// ([`crate::RunControl::deadline`]). The field carries the
    /// simulation time (in femtoseconds) the run had reached when it was
    /// cut off, so callers can report partial progress.
    DeadlineExceeded {
        /// Simulation time reached before the abort, in femtoseconds.
        time_fs: u128,
    },
    /// The engine (or the code driving it) panicked. The payload is the
    /// panic message; the job that raised it is lost but the process —
    /// and, through [`catch_unwind`](std::panic::catch_unwind) isolation
    /// in [`SimSession::run_batch`], every sibling job — survives.
    Panic(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        match self {
            Error::Elaborate(e) => write!(f, "elaboration error: {}", e),
            Error::Compile(msg) => write!(f, "compile error: {}", msg),
            Error::Runtime(msg) => write!(f, "runtime error: {}", msg),
            Error::BackendUnavailable(msg) => write!(f, "no compile backend: {}", msg),
            Error::UnknownSignal(name) => write!(f, "unknown signal '{}'", name),
            Error::DeadlineExceeded { time_fs } => write!(
                f,
                "deadline exceeded: wall-clock budget used up at simulation time {} fs",
                time_fs
            ),
            Error::Panic(msg) => write!(f, "simulation panicked: {}", msg),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Elaborate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ElaborateError> for Error {
    fn from(e: ElaborateError) -> Self {
        Error::Elaborate(e)
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        match e {
            SimError::Elaborate(e) => Error::Elaborate(e),
            SimError::Runtime(msg) => Error::Runtime(msg),
            // The raw conversion does not know how far the engine got;
            // the session layer rebuilds the variant with the real time.
            SimError::DeadlineExceeded => Error::DeadlineExceeded { time_fs: 0 },
        }
    }
}

/// Render a panic payload (the `Box<dyn Any>` from
/// [`std::panic::catch_unwind`] or [`std::thread::JoinHandle::join`])
/// into the human-readable message it almost always carries.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&'static str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// The engine trait and backend registry
// ---------------------------------------------------------------------------

/// The common surface of both simulation engines.
///
/// An engine is *prepared once* (construction performs all elaboration- or
/// compile-time work) and then driven incrementally. `step` advances by
/// exactly one scheduler cycle and resuming is deterministic: any chunking
/// of steps produces the same trace, byte for byte, as a single
/// uninterrupted run — both engines share the scheduling core in
/// [`crate::sched`], which is what makes this guarantee cheap.
///
/// Most callers never touch this trait directly — [`SimSession`] wraps it
/// — but generic drivers can hold any engine behind `Box<dyn Engine>`:
///
/// ```
/// use llhd_sim::api::Engine;
/// use llhd_sim::{elaborate, SimConfig, Simulator};
/// use std::sync::Arc;
///
/// let module = llhd::assembly::parse_module(
///     "proc @pulse () -> (i1$ %q) {
///     entry:
///         %on = const i1 1
///         %t = const time 2ns
///         drv i1$ %q, %on after %t
///         halt
///     }",
/// )
/// .unwrap();
/// let design = Arc::new(elaborate(&module, "pulse").unwrap());
/// let mut engine: Box<dyn Engine> = Box::new(Simulator::new(
///     &module,
///     design,
///     SimConfig::until_nanos(10),
/// ));
/// engine.initialize().unwrap();
/// while engine.step().unwrap() {}
/// assert_eq!(engine.finish().signal_changes, 1);
/// ```
pub trait Engine {
    /// A short name for diagnostics ("interp", "blaze").
    fn engine_name(&self) -> &'static str;
    /// Run the initialization phase (idempotent; `step` calls it).
    fn initialize(&mut self) -> Result<(), SimError>;
    /// Advance one scheduler cycle; `false` once the run is exhausted.
    fn step(&mut self) -> Result<bool, SimError>;
    /// The current simulation time.
    fn time(&self) -> TimeValue;
    /// The current value of a signal.
    fn peek(&self, signal: SignalId) -> ConstValue;
    /// Schedule an external drive, taking effect at the next delta step.
    fn poke(&mut self, signal: SignalId, value: ConstValue);
    /// Drain trace events recorded since the last drain into `buf`.
    fn drain_trace_into(&mut self, buf: &mut Vec<TraceEvent>);
    /// Assemble the result of the run so far (stats plus remaining trace).
    fn finish(&mut self) -> SimResult;
    /// Serialize the engine's complete execution state — signal values,
    /// event queue, per-instance state, counters, and undrained trace
    /// events — into an [`EngineState`]. Continuing from a restored
    /// checkpoint produces the identical remaining trace, byte for byte,
    /// to never having checkpointed.
    ///
    /// # Errors
    ///
    /// Fails on a poisoned engine (a prior step failed; there is no
    /// consistent state to capture).
    fn checkpoint(&self) -> Result<EngineState, SimError>;
    /// Replace this engine's execution state with a checkpoint taken from
    /// an engine of the same kind over the same design. The receiving
    /// engine should be freshly constructed with the same config; static
    /// state (sensitivity, compiled code, trace filters) is rebuilt by
    /// construction and only dynamic state is restored.
    ///
    /// # Errors
    ///
    /// Fails when the checkpoint belongs to a different engine kind or a
    /// design of a different shape, or on corrupt bytes.
    fn restore(&mut self, state: &EngineState) -> Result<(), SimError>;
    /// Replace the cooperative [`RunControl`] (wall-clock deadline,
    /// instrumentation probe) consulted between scheduler cycles.
    fn set_control(&mut self, control: RunControl);
}

// ---------------------------------------------------------------------------
// Engine checkpoints
// ---------------------------------------------------------------------------

/// The magic bytes at the start of every serialized engine checkpoint.
pub const ENGINE_STATE_MAGIC: &[u8; 4] = b"LHCK";
/// The checkpoint format version produced by [`Engine::checkpoint`].
///
/// The header carries the design's island-plan digest
/// ([`IslandPlan::hash`](crate::islands::IslandPlan::hash)) as a design
/// fingerprint, so a restore of a blob taken over a different design
/// fails cleanly instead of resuming foreign state. It is the only
/// version [`Engine::restore`] accepts.
pub const ENGINE_STATE_VERSION: u8 = 2;

/// A serialized engine execution state, produced by [`Engine::checkpoint`]
/// and consumed by [`Engine::restore`].
///
/// The payload is an opaque binary blob built on the bitcode primitives
/// (varints and the constant codec of [`llhd::bitcode`]): a common header
/// — magic, version, engine name, design shape — followed by the shared
/// scheduler-core section and an engine-specific section. It is
/// self-describing enough to be stored, sent over the wire (the server's
/// `session.checkpoint` hex-encodes it), and validated on restore, but it
/// is *not* a migration format: restore requires the same engine kind
/// over the same design.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EngineState(Vec<u8>);

impl EngineState {
    /// Assemble a checkpoint: the common header identifying `engine`, the
    /// design shape, and the island-plan digest, then whatever `body`
    /// appends.
    pub fn encode(
        engine: &str,
        num_signals: usize,
        num_instances: usize,
        island_plan_hash: u64,
        body: impl FnOnce(&mut Vec<u8>),
    ) -> EngineState {
        use llhd::bitcode::write_varint;
        let mut out = Vec::new();
        out.extend_from_slice(ENGINE_STATE_MAGIC);
        out.push(ENGINE_STATE_VERSION);
        write_varint(&mut out, engine.len() as u128);
        out.extend_from_slice(engine.as_bytes());
        write_varint(&mut out, num_signals as u128);
        write_varint(&mut out, num_instances as u128);
        write_varint(&mut out, island_plan_hash as u128);
        body(&mut out);
        EngineState(out)
    }

    /// Wrap raw checkpoint bytes (e.g. received over the wire), validating
    /// the header.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Runtime`] when the bytes do not start with a
    /// valid checkpoint header.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<EngineState, SimError> {
        let state = EngineState(bytes);
        state.header()?;
        Ok(state)
    }

    /// The serialized bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The name of the engine that produced this checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Runtime`] on a corrupt header.
    pub fn engine_name(&self) -> Result<&str, SimError> {
        Ok(self.header()?.0)
    }

    fn header(&self) -> Result<(&str, usize, usize, u64, usize), SimError> {
        use llhd::bitcode::read_varint;
        let bytes = &self.0;
        let corrupt = || SimError::Runtime("corrupt engine checkpoint header".to_string());
        if bytes.len() < 5 || &bytes[..4] != ENGINE_STATE_MAGIC {
            return Err(SimError::Runtime(
                "not an engine checkpoint (bad magic)".to_string(),
            ));
        }
        let version = bytes[4];
        if version != ENGINE_STATE_VERSION {
            return Err(SimError::Runtime(format!(
                "unsupported engine checkpoint version {}",
                version
            )));
        }
        let mut pos = 5;
        let name_len = read_varint(bytes, &mut pos).ok_or_else(corrupt)? as usize;
        let name_end = pos.checked_add(name_len).filter(|&e| e <= bytes.len()).ok_or_else(corrupt)?;
        let name = std::str::from_utf8(&bytes[pos..name_end]).map_err(|_| corrupt())?;
        pos = name_end;
        let num_signals = read_varint(bytes, &mut pos).ok_or_else(corrupt)? as usize;
        let num_instances = read_varint(bytes, &mut pos).ok_or_else(corrupt)? as usize;
        let plan_hash = read_varint(bytes, &mut pos).ok_or_else(corrupt)? as u64;
        Ok((name, num_signals, num_instances, plan_hash, pos))
    }

    /// Validate the header against the restoring engine and design and
    /// return the offset of the body plus the recorded island-plan digest.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Runtime`] when the engine name or the design
    /// shape does not match.
    pub fn validate(
        &self,
        engine: &str,
        num_signals: usize,
        num_instances: usize,
    ) -> Result<(usize, u64), SimError> {
        let (name, signals, instances, plan_hash, body) = self.header()?;
        if name != engine {
            return Err(SimError::Runtime(format!(
                "checkpoint was taken by engine '{}', cannot restore into '{}'",
                name, engine
            )));
        }
        if signals != num_signals || instances != num_instances {
            return Err(SimError::Runtime(format!(
                "checkpoint is for a design with {} signals / {} instances, \
                 this design has {} / {}",
                signals, instances, num_signals, num_instances
            )));
        }
        Ok((body, plan_hash))
    }

    /// The island-plan digest recorded in the header.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Runtime`] on a corrupt header.
    pub fn island_plan_hash(&self) -> Result<u64, SimError> {
        Ok(self.header()?.3)
    }
}

/// An engine-specific compiled design, type-erased so this crate does not
/// have to know the backend's types. `Send + Sync` so a [`DesignCache`]
/// can serve it across the batch runner's threads.
pub type CompiledArtifact = Arc<dyn Any + Send + Sync>;

/// The `compile` hook of a [`CompileBackend`].
pub type CompileFn = fn(&Module, Arc<ElaboratedDesign>) -> Result<CompiledArtifact, Error>;

/// The `instantiate` hook of a [`CompileBackend`].
pub type InstantiateFn = fn(&CompiledArtifact, &SimConfig) -> Result<Box<dyn Engine>, Error>;

/// The `artifact_bytes` hook of a [`CompileBackend`]: a rough retained-size
/// estimate of a compiled artifact, feeding the [`DesignCache`]'s
/// bytes-ish observability counter. Exactness is not required — return 0
/// if the backend cannot estimate.
pub type ArtifactBytesFn = fn(&CompiledArtifact) -> usize;

/// Per-unit statistics of a compiled artifact, reported through the
/// backend's [`artifact_stats`](CompileBackend::artifact_stats) hook so
/// introspection surfaces (the server's `session.query` stats request)
/// can show what compilation actually did without depending on the
/// backend crate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitArtifactStats {
    /// The unit name.
    pub name: String,
    /// `"process"`, `"entity"`, or `"function"`.
    pub kind: &'static str,
    /// Generic compiled operations (the base op stream).
    pub base_ops: usize,
    /// Superinstructions after lowering (0 when the unit is not lowered,
    /// e.g. functions).
    pub superops: usize,
    /// Instances of this unit in the elaborated design.
    pub instances: usize,
    /// Instances that received per-instance specialized code.
    pub specialized_instances: usize,
}

/// The `artifact_stats` hook of a [`CompileBackend`]: per-unit compilation
/// statistics of an artifact. Return an empty vector if the backend keeps
/// none.
pub type ArtifactStatsFn = fn(&CompiledArtifact) -> Vec<UnitArtifactStats>;

/// A pluggable ahead-of-time compilation backend. The compiled engine
/// lives in `llhd-blaze` (which depends on this crate), so the dependency
/// is inverted: blaze registers this vtable via
/// [`register_compile_backend`] and sessions resolve it at build time.
#[derive(Clone, Copy)]
pub struct CompileBackend {
    /// Backend name, for diagnostics.
    pub name: &'static str,
    /// Compile an elaborated design into a reusable, cacheable artifact.
    pub compile: CompileFn,
    /// Instantiate a fresh engine over a (possibly cached) artifact.
    pub instantiate: InstantiateFn,
    /// Estimate an artifact's retained size in bytes (for cache stats).
    pub artifact_bytes: ArtifactBytesFn,
    /// Report per-unit compilation statistics of an artifact.
    pub artifact_stats: ArtifactStatsFn,
}

static COMPILE_BACKEND: OnceLock<CompileBackend> = OnceLock::new();

/// Install the compile backend. Idempotent: the first registration wins,
/// later calls are no-ops (there is one compiled engine in this system).
pub fn register_compile_backend(backend: CompileBackend) {
    let _ = COMPILE_BACKEND.set(backend);
}

/// The registered compile backend, if any.
pub fn compile_backend() -> Option<&'static CompileBackend> {
    COMPILE_BACKEND.get()
}

/// Which engine a session runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineKind {
    /// Pick automatically: the compiled engine whenever a backend is
    /// registered, the interpreter when none is or when the backend
    /// rejects the module. Compilation repays itself within a few
    /// simulated cycles on every design measured (the benchmark's
    /// `blaze.breakeven_cycles`), so module size predicts nothing.
    #[default]
    Auto,
    /// The reference interpreter (`llhd-sim`).
    Interpret,
    /// The ahead-of-time compiled engine (`llhd-blaze`).
    Compile,
}

/// Module size from which [`EngineKind::Auto`] compiles: zero, that is,
/// every module. `Auto` itself does not read it; it is exported for
/// callers that mirror `Auto`'s rule by hand as `insts >= this`, which at
/// zero says what `Auto` does.
pub const AUTO_COMPILE_MIN_INSTS: usize = 0;

// ---------------------------------------------------------------------------
// Trace sinks
// ---------------------------------------------------------------------------

/// A streaming consumer of trace events.
///
/// Sinks attached to a session receive every recorded change *during* the
/// run (after each step), not as a post-processing pass over an in-memory
/// trace — with [`SessionBuilder::keep_trace`]`(false)`, the events
/// themselves never accumulate in memory. What a sink retains is its own
/// business: [`ChangeCounter`] keeps counters only, [`VcdSink`] keeps the
/// *formatted text* (write it to a file yourself if the document outgrows
/// memory), and a custom sink can stream to any destination:
///
/// ```
/// use llhd_sim::api::{SimSession, TraceSink};
/// use llhd_sim::design::SignalId;
/// use llhd::value::{ConstValue, TimeValue};
///
/// /// Records only the time of the last change it sees.
/// #[derive(Default)]
/// struct LastChange(Option<u128>);
///
/// impl TraceSink for LastChange {
///     fn event(&mut self, time: &TimeValue, _: SignalId, _: &str, _: &ConstValue) {
///         self.0 = Some(time.as_femtos());
///     }
/// }
///
/// let module = llhd::assembly::parse_module(
///     "proc @pulse () -> (i1$ %q) {
///     entry:
///         %on = const i1 1
///         %t = const time 2ns
///         drv i1$ %q, %on after %t
///         halt
///     }",
/// )
/// .unwrap();
/// let mut last = LastChange::default();
/// SimSession::builder(&module, "pulse")
///     .until_nanos(10)
///     .sink(&mut last)
///     .build()
///     .unwrap()
///     .run()
///     .unwrap();
/// assert_eq!(last.0, Some(2_000_000)); // 2 ns, in femtoseconds
/// ```
pub trait TraceSink {
    /// Called once before any event, with the elaborated signal table
    /// (indexed by resolved [`SignalId`]).
    fn begin(&mut self, signals: &[SignalInfo]) {
        let _ = signals;
    }
    /// One recorded value change. `name` is the hierarchical signal name
    /// (the same string every time for a given `signal`).
    fn event(&mut self, time: &TimeValue, signal: SignalId, name: &str, value: &ConstValue);
    /// Called once after the last event.
    fn finish(&mut self) {}
}

/// The in-memory trace is itself a sink: streaming into it produces
/// exactly what the engine would have recorded internally.
impl TraceSink for Trace {
    fn begin(&mut self, signals: &[SignalInfo]) {
        // One trace per run: every session restarts simulation time at
        // zero, so appending a second run's events would produce a
        // time-disordered list (and an invalid VCD). Start fresh, seeded
        // with this design's name table (events arrive by resolved id).
        *self = Trace::with_names(signals.iter().map(|s| s.name.clone()).collect());
    }
    fn event(&mut self, time: &TimeValue, signal: SignalId, _name: &str, value: &ConstValue) {
        self.record_id(*time, signal.0 as u32, value.clone());
    }
}

/// A sink that discards every event. Useful to measure the streaming path
/// itself, or as a placeholder in generic drivers.
#[derive(Default, Debug)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn event(&mut self, _: &TimeValue, _: SignalId, _: &str, _: &ConstValue) {}
}

/// Counts value changes per signal without storing them.
#[derive(Default, Debug)]
pub struct ChangeCounter {
    total: usize,
    /// Per-signal counts, dense by resolved signal id (sized in `begin`,
    /// so the per-event path is an array increment, not a string hash).
    counts: Vec<usize>,
    /// Signal names, parallel to `counts` (resolved lazily by accessors).
    names: Vec<String>,
}

impl ChangeCounter {
    /// Create a counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of changes observed.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Changes observed on one signal (by exact hierarchical name).
    pub fn count_of(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.counts[i])
            .unwrap_or(0)
    }

    /// All nonzero per-signal counts, by hierarchical name.
    pub fn counts(&self) -> HashMap<String, usize> {
        self.names
            .iter()
            .zip(&self.counts)
            .filter(|&(_, &count)| count > 0)
            .map(|(name, &count)| (name.clone(), count))
            .collect()
    }
}

impl TraceSink for ChangeCounter {
    fn begin(&mut self, signals: &[SignalInfo]) {
        // One run per counter, like the other sinks: reuse across
        // sessions starts over instead of silently merging counts.
        self.total = 0;
        self.names = signals.iter().map(|s| s.name.clone()).collect();
        self.counts = vec![0; signals.len()];
    }

    fn event(&mut self, _: &TimeValue, signal: SignalId, name: &str, _: &ConstValue) {
        self.total += 1;
        if signal.0 >= self.counts.len() {
            // Standalone use without a `begin` call.
            self.counts.resize(signal.0 + 1, 0);
            self.names.resize(signal.0 + 1, String::new());
        }
        if self.names[signal.0].is_empty() {
            self.names[signal.0] = name.to_string();
        }
        self.counts[signal.0] += 1;
    }
}

/// An incremental VCD writer: every event is formatted as it arrives, so
/// the change body never lives in memory as events — only as text. The
/// final document ([`VcdSink::into_string`]) is byte-identical to
/// [`Trace::to_vcd`] over the same events.
#[derive(Debug)]
pub struct VcdSink {
    timescale: String,
    /// Formatted value-change lines, appended as events arrive.
    body: String,
    /// Identifier code per resolved signal id (dense, no hashing on the
    /// per-event path), assigned on first appearance.
    code_of: Vec<Option<usize>>,
    /// `(name, width)` per code, in first-appearance order.
    defs: Vec<(String, usize)>,
    current_time: Option<u128>,
}

impl VcdSink {
    /// Create a sink emitting the given `$timescale`.
    pub fn new(timescale: &str) -> Self {
        VcdSink {
            timescale: timescale.to_string(),
            body: String::new(),
            code_of: Vec::new(),
            defs: Vec::new(),
            current_time: None,
        }
    }

    /// Render the full VCD document (header plus the body streamed so far).
    pub fn to_vcd(&self) -> String {
        let mut out = String::with_capacity(self.body.len() + 256);
        crate::trace::write_vcd_header(
            &mut out,
            &self.timescale,
            self.defs.iter().map(|(name, width)| (name.as_str(), *width)),
        );
        out.push_str(&self.body);
        out
    }

    /// Consume the sink, rendering the full VCD document.
    pub fn into_string(self) -> String {
        self.to_vcd()
    }
}

impl TraceSink for VcdSink {
    fn begin(&mut self, signals: &[SignalInfo]) {
        // A VCD document cannot coherently span designs (identifier codes
        // are per resolved signal id, timestamps restart): each session
        // starts a fresh document.
        self.body.clear();
        self.code_of.clear();
        self.code_of.resize(signals.len(), None);
        self.defs.clear();
        self.current_time = None;
    }

    fn event(&mut self, time: &TimeValue, signal: SignalId, name: &str, value: &ConstValue) {
        use std::fmt::Write;
        if signal.0 >= self.code_of.len() {
            // Standalone use without a `begin` call.
            self.code_of.resize(signal.0 + 1, None);
        }
        let code = match self.code_of[signal.0] {
            Some(code) => code,
            None => {
                let code = self.defs.len();
                self.code_of[signal.0] = Some(code);
                self.defs
                    .push((name.to_string(), value.ty().bit_size().max(1)));
                code
            }
        };
        let femtos = time.as_femtos();
        if self.current_time != Some(femtos) {
            writeln!(self.body, "#{}", femtos).unwrap();
            self.current_time = Some(femtos);
        }
        write_vcd_change(&mut self.body, value, code);
    }
}

// ---------------------------------------------------------------------------
// Design cache
// ---------------------------------------------------------------------------

/// 128-bit FNV-1a over the module's bitcode encoding: a stable content
/// hash that identifies a design regardless of which `Module` allocation
/// holds it. 128 bits make an *accidental* collision negligible (the
/// birthday bound sits near 2^64 distinct designs); FNV is not
/// collision-resistant against *crafted* input, so a service accepting
/// adversarial designs must swap in a cryptographic hash here.
fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut hash: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    for &b in bytes {
        hash ^= b as u128;
        hash = hash.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
    }
    hash
}

#[derive(Default)]
struct CacheEntry {
    elaborated: Option<Arc<ElaboratedDesign>>,
    compiled: Option<CompiledArtifact>,
}

/// One lockable cache slot per `(fingerprint, top)` key.
type SharedCacheEntry = Arc<Mutex<CacheEntry>>;

/// Lock a mutex, recovering from poison. Used for bookkeeping locks
/// (the cache map, batch slots) whose guarded state is updated in
/// single non-panicking assignments — a poisoned guard there means a
/// *sibling* operation panicked, not that the state is torn.
fn lock_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Map-level bookkeeping for one cached design. Lives *outside* the
/// per-entry lock so the eviction scan and [`DesignCache::stats`] never
/// have to take entry locks that may be held across an elaboration or
/// compilation.
struct CacheSlot {
    entry: SharedCacheEntry,
    /// Logical timestamp of the most recent lookup (LRU order).
    last_used: u64,
    /// Number of lookups that resolved to this design (each lookup is one
    /// prospective simulation run).
    runs: usize,
    /// Rough retained size, updated after each fill (see
    /// [`approx_elaborated_bytes`] for what "rough" means).
    approx_bytes: usize,
    /// Whether a compiled artifact has been stored.
    compiled: bool,
}

/// The map behind the cache: slots plus the logical clock that orders
/// them for eviction.
#[derive(Default)]
struct CacheMap {
    slots: HashMap<(u128, String), CacheSlot>,
    tick: u64,
}

/// A rough retained-size estimate for an elaborated design: struct sizes
/// plus string/value payloads, intentionally cheap rather than exact (no
/// deep traversal of types). Good enough to spot a cache holding tens of
/// megabytes; not an allocator-grade measurement.
fn approx_elaborated_bytes(design: &ElaboratedDesign) -> usize {
    let signals: usize = design
        .signals
        .iter()
        .map(|s| {
            std::mem::size_of::<SignalInfo>() + s.name.len() + s.init.ty().bit_size().div_ceil(8)
        })
        .sum();
    let instances: usize = design
        .instances
        .iter()
        .map(|i| {
            std::mem::size_of_val(i) + i.name.len() + i.signal_map.len() * 4 * std::mem::size_of::<usize>()
        })
        .sum();
    // The alias table is one usize per signal.
    signals + instances + design.signals.len() * std::mem::size_of::<usize>()
}

/// Per-design cache statistics, part of [`CacheStats`].
#[derive(Clone, Debug)]
pub struct DesignStats {
    /// The design's content hash ([`DesignCache::fingerprint`]).
    pub fingerprint: u128,
    /// The top-level unit the design was elaborated for.
    pub top: String,
    /// Number of lookups served for this design (hits + the filling miss).
    pub runs: usize,
    /// Rough retained bytes for this design's artifacts.
    pub approx_bytes: usize,
    /// Whether a compiled artifact is cached alongside the elaboration.
    pub compiled: bool,
}

/// A point-in-time snapshot of a [`DesignCache`]'s observability surface:
/// hit/miss/eviction counters, live-entry count, a bytes-ish retained-size
/// estimate, and per-design run counts (sorted most-used first). This is
/// what a long-running server logs periodically and serves from its
/// `stats` endpoint.
#[derive(Clone, Debug, Default)]
pub struct CacheStats {
    /// Lookups that reused a cached elaboration.
    pub elaborate_hits: usize,
    /// Lookups that had to elaborate.
    pub elaborate_misses: usize,
    /// Lookups that reused a compiled artifact.
    pub compile_hits: usize,
    /// Lookups that had to compile.
    pub compile_misses: usize,
    /// Designs evicted to keep the cache within its capacity.
    pub evictions: usize,
    /// Designs currently cached.
    pub entries: usize,
    /// Maximum number of cached designs (`None` = unbounded).
    pub capacity: Option<usize>,
    /// Rough retained bytes across all live entries.
    pub approx_bytes: usize,
    /// Per-design statistics, sorted by `runs` descending.
    pub designs: Vec<DesignStats>,
}

/// Memoizes elaborated and ahead-of-time-compiled designs, keyed by
/// `(module content hash, top unit)`.
///
/// A session built with [`SessionBuilder::cache`] looks its design up
/// here first: on a hit, elaboration (and for the compiled engine, the
/// whole `compile_design` step) is skipped and the shared artifact is
/// reused. The cache is `Sync` — one instance can serve
/// [`SimSession::run_batch`] workers concurrently and is the seed of the
/// ROADMAP's long-running server mode. Each key has its own lock, held
/// across the fill: concurrent lookups of the *same* design elaborate
/// and compile exactly once (the second caller blocks briefly, then
/// hits), while different designs proceed in parallel.
#[derive(Default)]
pub struct DesignCache {
    entries: Mutex<CacheMap>,
    /// Maximum number of live designs; 0 = unbounded.
    capacity: AtomicUsize,
    elaborate_hits: AtomicUsize,
    elaborate_misses: AtomicUsize,
    compile_hits: AtomicUsize,
    compile_misses: AtomicUsize,
    evictions: AtomicUsize,
}

impl DesignCache {
    /// Create an unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a cache that holds at most `capacity` designs, evicting the
    /// least recently used one beyond that.
    ///
    /// Eviction only drops the cache's *reference* to a design's artifacts:
    /// sessions already running on an evicted design keep their own
    /// [`Arc`]s and are unaffected. A design some lookup currently holds —
    /// from the moment `entry()` hands out its slot until the fill
    /// completes — is never evicted, so the live count can transiently
    /// exceed the capacity by the number of concurrent lookups.
    ///
    /// ```
    /// use llhd_sim::api::DesignCache;
    /// let cache = DesignCache::with_capacity(8);
    /// assert_eq!(cache.capacity(), Some(8));
    /// ```
    pub fn with_capacity(capacity: usize) -> Self {
        let cache = Self::default();
        cache.set_capacity(Some(capacity));
        cache
    }

    /// The configured capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        match self.capacity.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        }
    }

    /// Change the capacity. Shrinking evicts least-recently-used designs
    /// immediately; `None` (or `Some(0)`, which means "unbounded" too)
    /// lifts the bound without dropping anything.
    pub fn set_capacity(&self, capacity: Option<usize>) {
        self.capacity
            .store(capacity.unwrap_or(0), Ordering::Relaxed);
        if capacity.unwrap_or(0) > 0 {
            self.evict_over_capacity(&mut lock_recover(&self.entries), None);
        }
    }

    /// Evict least-recently-used designs until the map is within capacity,
    /// skipping `keep` (the key being served right now) and any slot a
    /// lookup currently holds. "Held" is judged by the slot's `Arc` count,
    /// not its lock: `entry()` hands the `Arc` out under the map lock, so
    /// a count above one means some thread is between receiving the slot
    /// and finishing its fill — evicting it then would orphan the fill
    /// (the artifacts and stats would land in a detached entry and the
    /// next lookup would redo the work). Called with the map lock held.
    fn evict_over_capacity(&self, map: &mut CacheMap, keep: Option<&(u128, String)>) {
        let capacity = self.capacity.load(Ordering::Relaxed);
        if capacity == 0 {
            return;
        }
        while map.slots.len() > capacity {
            let victim = map
                .slots
                .iter()
                .filter(|&(key, slot)| {
                    keep != Some(key) && Arc::strong_count(&slot.entry) == 1
                })
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone());
            match victim {
                Some(key) => {
                    map.slots.remove(&key);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Everything else is mid-fill: leave the overshoot in
                // place rather than spin; the next lookup retries.
                None => break,
            }
        }
    }

    /// Lock a cache entry, recovering from poison by evicting its
    /// contents: a poisoned entry means a fill (or a panic injected by
    /// the fault harness) unwound while holding the lock, so the
    /// possibly half-built artifacts are discarded and the caller
    /// refills from scratch instead of wedging every future lookup of
    /// this design behind a `PoisonError`.
    fn lock_entry<'a>(&self, slot: &'a SharedCacheEntry) -> std::sync::MutexGuard<'a, CacheEntry> {
        match slot.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                *guard = CacheEntry::default();
                slot.clear_poison();
                self.evictions.fetch_add(1, Ordering::Relaxed);
                guard
            }
        }
    }

    /// Evict every design whose entry lock is poisoned (a fill panicked
    /// while holding it and nobody has re-requested the design since).
    /// The batch runner and the server call this after catching a
    /// panic; a no-op when nothing is poisoned.
    pub fn sweep_poisoned(&self) {
        let mut map = lock_recover(&self.entries);
        let poisoned: Vec<_> = map
            .slots
            .iter()
            .filter(|(_, slot)| slot.entry.is_poisoned())
            .map(|(key, _)| key.clone())
            .collect();
        for key in poisoned {
            map.slots.remove(&key);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The content hash used as the cache key for `module`. This encodes
    /// the module to bitcode (O(module size)); callers that look the same
    /// module up repeatedly should compute it once and use the `_keyed`
    /// entry points (or [`SessionBuilder::cache_key`]).
    pub fn fingerprint(module: &Module) -> u128 {
        fnv1a_128(&llhd::bitcode::encode_module(module))
    }

    /// The per-key entry, creating it if needed, bumping its LRU stamp and
    /// run count, and evicting over-capacity cold designs. The outer map
    /// lock is held only for this probe; the returned entry carries its
    /// own lock.
    fn entry(&self, fingerprint: u128, top: &str) -> SharedCacheEntry {
        let mut map = lock_recover(&self.entries);
        map.tick += 1;
        let tick = map.tick;
        let key = (fingerprint, top.to_string());
        let slot = map.slots.entry(key.clone()).or_insert_with(|| CacheSlot {
            entry: SharedCacheEntry::default(),
            last_used: 0,
            runs: 0,
            approx_bytes: 0,
            compiled: false,
        });
        slot.last_used = tick;
        slot.runs += 1;
        let entry = Arc::clone(&slot.entry);
        self.evict_over_capacity(&mut map, Some(&key));
        entry
    }

    /// Record a completed fill's size estimate at the map level (no entry
    /// lock needed for stats or eviction decisions afterwards). The slot
    /// may have been evicted while the fill ran; that is fine — the caller
    /// still holds its own `Arc` and the estimate dies with the slot.
    fn note_fill(&self, fingerprint: u128, top: &str, approx_bytes: usize, compiled: bool) {
        let mut map = lock_recover(&self.entries);
        if let Some(slot) = map.slots.get_mut(&(fingerprint, top.to_string())) {
            slot.approx_bytes = slot.approx_bytes.max(approx_bytes);
            slot.compiled |= compiled;
        }
    }

    /// The elaborated design for `(module, top)`, elaborating on a miss.
    ///
    /// # Errors
    ///
    /// Propagates elaboration failures (which are not cached).
    pub fn elaborated(&self, module: &Module, top: &str) -> Result<Arc<ElaboratedDesign>, Error> {
        self.elaborated_keyed(Self::fingerprint(module), module, top)
    }

    /// [`DesignCache::elaborated`] with a precomputed [`DesignCache::fingerprint`].
    ///
    /// # Errors
    ///
    /// Propagates elaboration failures (which are not cached).
    pub fn elaborated_keyed(
        &self,
        fingerprint: u128,
        module: &Module,
        top: &str,
    ) -> Result<Arc<ElaboratedDesign>, Error> {
        let slot = self.entry(fingerprint, top);
        let mut entry = self.lock_entry(&slot);
        if let Some(found) = &entry.elaborated {
            self.elaborate_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(found));
        }
        self.elaborate_misses.fetch_add(1, Ordering::Relaxed);
        let design = match elaborate(module, top) {
            Ok(d) => Arc::new(d),
            Err(e) => {
                drop(entry);
                self.discard_if_empty(fingerprint, top);
                return Err(e.into());
            }
        };
        entry.elaborated = Some(Arc::clone(&design));
        drop(entry);
        self.note_fill(fingerprint, top, approx_elaborated_bytes(&design), false);
        Ok(design)
    }

    /// Drop the `(fingerprint, top)` entry if it holds nothing — failed
    /// elaborations/compilations must not leak placeholder entries into
    /// `len()` or grow the map in a long-running server.
    fn discard_if_empty(&self, fingerprint: u128, top: &str) {
        let mut map = lock_recover(&self.entries);
        let key = (fingerprint, top.to_string());
        let empty = map.slots.get(&key).is_some_and(|slot| {
            slot.entry
                .try_lock()
                .map(|entry| entry.elaborated.is_none() && entry.compiled.is_none())
                .unwrap_or(false)
        });
        if empty {
            map.slots.remove(&key);
        }
    }

    /// The compiled artifact for `(module, top)` under `backend`,
    /// elaborating and compiling on a miss. On a hit the backend's
    /// `compile` hook is **not** invoked — asserted by the
    /// [`DesignCache::compile_hits`] counter in the test suite.
    ///
    /// # Errors
    ///
    /// Propagates elaboration and compilation failures (not cached).
    pub fn compiled(
        &self,
        module: &Module,
        top: &str,
        backend: &CompileBackend,
    ) -> Result<(Arc<ElaboratedDesign>, CompiledArtifact), Error> {
        self.compiled_keyed(Self::fingerprint(module), module, top, backend)
    }

    /// [`DesignCache::compiled`] with a precomputed [`DesignCache::fingerprint`].
    ///
    /// # Errors
    ///
    /// Propagates elaboration and compilation failures (not cached).
    pub fn compiled_keyed(
        &self,
        fingerprint: u128,
        module: &Module,
        top: &str,
        backend: &CompileBackend,
    ) -> Result<(Arc<ElaboratedDesign>, CompiledArtifact), Error> {
        let slot = self.entry(fingerprint, top);
        let mut entry = self.lock_entry(&slot);
        if let (Some(design), Some(artifact)) = (&entry.elaborated, &entry.compiled) {
            self.compile_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(design), Arc::clone(artifact)));
        }
        // Reuse a cached elaboration even when the compiled artifact is
        // missing (e.g. the design ran on the interpreter first). The
        // elaboration counters track this table too, so compile-only
        // workloads still report elaboration-cache effectiveness.
        let design = match &entry.elaborated {
            Some(d) => {
                self.elaborate_hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(d)
            }
            None => {
                self.elaborate_misses.fetch_add(1, Ordering::Relaxed);
                match elaborate(module, top) {
                    Ok(d) => Arc::new(d),
                    Err(e) => {
                        drop(entry);
                        self.discard_if_empty(fingerprint, top);
                        return Err(e.into());
                    }
                }
            }
        };
        // Store the elaboration before compiling: if the backend rejects
        // the design, the (valid) elaboration stays cached for retries
        // and interpreter sessions.
        entry.elaborated = Some(Arc::clone(&design));
        self.compile_misses.fetch_add(1, Ordering::Relaxed);
        let artifact = match (backend.compile)(module, Arc::clone(&design)) {
            Ok(artifact) => artifact,
            Err(e) => {
                drop(entry);
                self.note_fill(fingerprint, top, approx_elaborated_bytes(&design), false);
                return Err(e);
            }
        };
        entry.compiled = Some(Arc::clone(&artifact));
        drop(entry);
        let bytes = approx_elaborated_bytes(&design) + (backend.artifact_bytes)(&artifact);
        self.note_fill(fingerprint, top, bytes, true);
        Ok((design, artifact))
    }

    /// Cache hits on the elaboration table.
    pub fn elaborate_hits(&self) -> usize {
        self.elaborate_hits.load(Ordering::Relaxed)
    }

    /// Cache misses on the elaboration table.
    pub fn elaborate_misses(&self) -> usize {
        self.elaborate_misses.load(Ordering::Relaxed)
    }

    /// Lookups that reused a compiled artifact (no `compile_design` run).
    pub fn compile_hits(&self) -> usize {
        self.compile_hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compile.
    pub fn compile_misses(&self) -> usize {
        self.compile_misses.load(Ordering::Relaxed)
    }

    /// Designs evicted so far to keep the cache within its capacity.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The number of cached designs.
    pub fn len(&self) -> usize {
        lock_recover(&self.entries).slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all cached designs (counters are kept; in-flight sessions keep
    /// their own `Arc`s and are unaffected, like eviction).
    pub fn clear(&self) {
        lock_recover(&self.entries).slots.clear();
    }

    /// Snapshot the observability surface: counters, live entries, the
    /// bytes-ish retained-size estimate, and per-design run counts (sorted
    /// most-used first).
    ///
    /// ```
    /// use llhd::assembly::parse_module;
    /// use llhd_sim::api::{DesignCache, SimSession};
    ///
    /// let module = parse_module(
    ///     "proc @p () -> (i1$ %q) {
    ///     entry:
    ///         %v = const i1 1
    ///         %t = const time 1ns
    ///         drv i1$ %q, %v after %t
    ///         halt
    ///     }",
    /// )
    /// .unwrap();
    /// let cache = DesignCache::with_capacity(4);
    /// for _ in 0..3 {
    ///     SimSession::builder(&module, "p").cache(&cache).build().unwrap();
    /// }
    /// let stats = cache.stats();
    /// assert_eq!((stats.elaborate_misses, stats.elaborate_hits), (1, 2));
    /// assert_eq!(stats.designs[0].runs, 3);
    /// assert!(stats.approx_bytes > 0);
    /// ```
    pub fn stats(&self) -> CacheStats {
        let map = lock_recover(&self.entries);
        let mut designs: Vec<DesignStats> = map
            .slots
            .iter()
            .map(|((fingerprint, top), slot)| DesignStats {
                fingerprint: *fingerprint,
                top: top.clone(),
                runs: slot.runs,
                approx_bytes: slot.approx_bytes,
                compiled: slot.compiled,
            })
            .collect();
        designs.sort_by(|a, b| {
            b.runs
                .cmp(&a.runs)
                .then_with(|| a.top.cmp(&b.top))
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });
        CacheStats {
            elaborate_hits: self.elaborate_hits(),
            elaborate_misses: self.elaborate_misses(),
            compile_hits: self.compile_hits(),
            compile_misses: self.compile_misses(),
            evictions: self.evictions(),
            entries: map.slots.len(),
            capacity: self.capacity(),
            approx_bytes: designs.iter().map(|d| d.approx_bytes).sum(),
            designs,
        }
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// Configures and builds a [`SimSession`]. Created by
/// [`SimSession::builder`].
///
/// The builder owns every pre-run decision: engine selection, run
/// limits, trace configuration, caching. Methods chain:
///
/// ```
/// use llhd_sim::api::{ChangeCounter, DesignCache, EngineKind, SimSession};
///
/// let module = llhd::assembly::parse_module(
///     "proc @blink () -> (i1$ %led) {
///     entry:
///         %on = const i1 1
///         %off = const i1 0
///         %delay = const time 5ns
///         drv i1$ %led, %on after %delay
///         wait %next for %delay
///     next:
///         drv i1$ %led, %off after %delay
///         wait %entry for %delay
///     }",
/// )
/// .unwrap();
/// let cache = DesignCache::new();
/// let mut changes = ChangeCounter::new();
/// let result = SimSession::builder(&module, "blink")
///     .engine(EngineKind::Interpret)   // default: EngineKind::Auto
///     .until_nanos(50)                 // run limit
///     .trace_filter(&["led"])          // record only matching signals
///     .cache(&cache)                   // reuse elaboration across runs
///     .sink(&mut changes)              // stream events during the run
///     .build()
///     .unwrap()
///     .run()
///     .unwrap();
/// assert_eq!(changes.total(), result.trace.len());
/// assert_eq!(cache.elaborate_misses(), 1);
/// ```
pub struct SessionBuilder<'m> {
    module: &'m Module,
    top: &'m str,
    kind: EngineKind,
    config: SimConfig,
    cache: Option<&'m DesignCache>,
    cache_key: Option<u128>,
    sinks: Vec<&'m mut dyn TraceSink>,
    keep_trace: bool,
}

impl<'m> SessionBuilder<'m> {
    /// Select the engine (default: [`EngineKind::Auto`]).
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.kind = kind;
        self
    }

    /// Replace the whole run configuration.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Stop the simulation at the given physical time (nanoseconds).
    pub fn until_nanos(mut self, nanos: u128) -> Self {
        self.config.max_time = TimeValue::from_nanos(nanos);
        self
    }

    /// Stop the simulation at the given time.
    pub fn until(mut self, time: TimeValue) -> Self {
        self.config.max_time = time;
        self
    }

    /// Disable trace recording entirely (benchmarking).
    pub fn without_trace(mut self) -> Self {
        self.config.trace = false;
        self
    }

    /// Only trace signals whose hierarchical name ends with one of the
    /// given suffixes.
    pub fn trace_filter(mut self, names: &[&str]) -> Self {
        self.config.trace_filter = Some(names.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Guard against unbounded delta cycles within one instant.
    pub fn max_deltas_per_instant(mut self, n: u32) -> Self {
        self.config.max_deltas_per_instant = n;
        self
    }

    /// Guard against processes looping without suspending.
    pub fn max_steps_per_activation(mut self, n: usize) -> Self {
        self.config.max_steps_per_activation = n;
        self
    }

    /// Serve elaboration/compilation from (and populate) `cache`.
    pub fn cache(mut self, cache: &'m DesignCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Supply a precomputed [`DesignCache::fingerprint`] for the module,
    /// so a cached build skips re-encoding the module to compute its key.
    /// The key must come from `DesignCache::fingerprint` on this module;
    /// a stale key silently maps to a different cache entry.
    pub fn cache_key(mut self, fingerprint: u128) -> Self {
        self.cache_key = Some(fingerprint);
        self
    }

    /// Attach a streaming trace sink; may be called repeatedly. Sinks
    /// receive every recorded change after each step, in order, and
    /// imply trace recording even if the run config disabled it (the
    /// trace filter still applies).
    pub fn sink(mut self, sink: &'m mut dyn TraceSink) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Whether the session keeps the events in memory for
    /// [`SimResult::trace`] (default `true`). With `false`, events are
    /// handed to the attached sinks and dropped — memory stays bounded on
    /// arbitrarily long runs and the returned result carries an empty
    /// trace; with `false` and no sinks, trace recording is disabled
    /// entirely (only the run statistics survive).
    pub fn keep_trace(mut self, keep: bool) -> Self {
        self.keep_trace = keep;
        self
    }

    /// Resolve the engine kind, elaborate (through the cache when one is
    /// attached), construct the engine, and wire up the sinks.
    ///
    /// # Errors
    ///
    /// Fails on elaboration or compilation errors, and with
    /// [`Error::BackendUnavailable`] when [`EngineKind::Compile`] is
    /// requested without a registered backend.
    pub fn build(mut self) -> Result<SimSession<'m>, Error> {
        if self.sinks.is_empty() {
            if !self.keep_trace {
                // No sink wants the events and the caller doesn't want
                // them in memory either: don't record them at all.
                self.config.trace = false;
            }
        } else {
            // Attached sinks are an explicit request for the event
            // stream; they override a `without_trace()` run config (the
            // trace *filter* still applies).
            self.config.trace = true;
        }
        let auto = self.kind == EngineKind::Auto;
        let mut kind = match self.kind {
            EngineKind::Auto if compile_backend().is_some() => EngineKind::Compile,
            EngineKind::Auto => EngineKind::Interpret,
            k => k,
        };
        let key = match self.cache {
            Some(_) => Some(
                self.cache_key
                    .unwrap_or_else(|| DesignCache::fingerprint(self.module)),
            ),
            None => None,
        };
        // A supplied key must be this module's fingerprint; a stale one
        // would silently serve a *different* cached design. Caught in
        // debug builds (release keeps the skip-the-encode fast path).
        debug_assert!(
            self.cache_key.is_none() || key == Some(DesignCache::fingerprint(self.module)),
            "SessionBuilder::cache_key does not match the module's fingerprint"
        );
        let mut compiled = None;
        let mut unit_stats = Vec::new();
        // Elaboration computed for a failed compile attempt, reused by
        // the interpreter fallback instead of elaborating twice.
        let mut elaborated = None;
        if kind == EngineKind::Compile {
            let backend = compile_backend().ok_or_else(|| {
                Error::BackendUnavailable(
                    "EngineKind::Compile requires llhd_blaze::register()".to_string(),
                )
            })?;
            let attempt = match (self.cache, key) {
                (Some(cache), Some(key)) => {
                    cache.compiled_keyed(key, self.module, self.top, backend)
                }
                _ => {
                    let design = Arc::new(elaborate(self.module, self.top)?);
                    elaborated = Some(Arc::clone(&design));
                    (backend.compile)(self.module, Arc::clone(&design))
                        .map(|artifact| (design, artifact))
                }
            };
            match attempt {
                Ok((design, artifact)) => {
                    let engine = (backend.instantiate)(&artifact, &self.config)?;
                    unit_stats = (backend.artifact_stats)(&artifact);
                    compiled = Some((design, engine));
                }
                // `Auto` promises a *working* selection, not a bet on the
                // compiled subset: designs the backend rejects degrade to
                // the interpreter. An explicit `Compile` still fails.
                Err(Error::Compile(_)) if auto => kind = EngineKind::Interpret,
                Err(e) => return Err(e),
            }
        }
        let (design, engine): (Arc<ElaboratedDesign>, Box<dyn Engine + 'm>) = match compiled {
            Some(built) => built,
            None => {
                let design = match (self.cache, key, elaborated) {
                    (_, _, Some(design)) => design,
                    (Some(cache), Some(key), None) => {
                        cache.elaborated_keyed(key, self.module, self.top)?
                    }
                    _ => Arc::new(elaborate(self.module, self.top)?),
                };
                let engine = Box::new(Simulator::new(
                    self.module,
                    Arc::clone(&design),
                    self.config.clone(),
                ));
                (design, engine)
            }
        };
        let mut sinks = self.sinks;
        for sink in sinks.iter_mut() {
            sink.begin(&design.signals);
        }
        let session_trace = if !sinks.is_empty() && self.keep_trace {
            Some(Trace::with_names(
                design.signals.iter().map(|s| s.name.clone()).collect(),
            ))
        } else {
            None
        };
        Ok(SimSession {
            engine,
            design,
            kind,
            sinks,
            session_trace,
            drain_buf: Vec::new(),
            failed: None,
            unit_stats,
        })
    }
}

/// One prepared simulation: an engine plus its elaborated design, run
/// limits, and trace plumbing, behind a single engine-agnostic surface.
///
/// Use [`SimSession::run`] for a complete run, or drive it incrementally
/// with [`SimSession::step`]/[`SimSession::peek`]/[`SimSession::poke`] and
/// collect the result with [`SimSession::finish`]. Stepping is
/// deterministic: any chunking reproduces the uninterrupted trace byte
/// for byte.
///
/// ```
/// use llhd_sim::api::{EngineKind, SimSession};
/// use llhd::value::ConstValue;
///
/// let module = llhd::assembly::parse_module(
///     "entity @follower (i8$ %a) -> (i8$ %q) {
///         %ap = prb i8$ %a
///         %delay = const time 1ns
///         drv i8$ %q, %ap after %delay
///     }
///     entity @top () -> () {
///         %zero = const i8 0
///         %a = sig i8 %zero
///         %q = sig i8 %zero
///         inst @follower (%a) -> (%q)
///     }",
/// )
/// .unwrap();
/// let mut session = SimSession::builder(&module, "top")
///     .engine(EngineKind::Interpret)
///     .until_nanos(10)
///     .build()
///     .unwrap();
/// session.initialize().unwrap();
/// session.poke("a", ConstValue::int(8, 42)).unwrap();   // external drive
/// while session.step().unwrap() {}                      // one cycle at a time
/// assert_eq!(session.peek("q").unwrap(), ConstValue::int(8, 42));
/// ```
pub struct SimSession<'m> {
    engine: Box<dyn Engine + 'm>,
    design: Arc<ElaboratedDesign>,
    kind: EngineKind,
    sinks: Vec<&'m mut dyn TraceSink>,
    /// In-memory copy of streamed events (sinks attached + keep_trace).
    session_trace: Option<Trace>,
    drain_buf: Vec<TraceEvent>,
    /// The first `initialize`/`step` failure; `finish` replays it rather
    /// than assembling a half-applied result.
    failed: Option<Error>,
    /// Per-unit compilation statistics from the backend's
    /// `artifact_stats` hook (empty for interpreted sessions).
    unit_stats: Vec<UnitArtifactStats>,
}

impl<'m> SimSession<'m> {
    /// Start configuring a session for `top` in `module`.
    pub fn builder(module: &'m Module, top: &'m str) -> SessionBuilder<'m> {
        SessionBuilder {
            module,
            top,
            kind: EngineKind::Auto,
            config: SimConfig::default(),
            cache: None,
            cache_key: None,
            sinks: Vec::new(),
            keep_trace: true,
        }
    }

    /// The engine the session resolved to (never [`EngineKind::Auto`]).
    pub fn engine_kind(&self) -> EngineKind {
        self.kind
    }

    /// The engine's diagnostic name ("interp", "blaze").
    pub fn engine_name(&self) -> &'static str {
        self.engine.engine_name()
    }

    /// The elaborated design the session simulates.
    pub fn design(&self) -> &ElaboratedDesign {
        &self.design
    }

    /// Per-unit compilation statistics (base ops, fused superops,
    /// specialized instance counts) reported by the compile backend.
    /// Empty for interpreted sessions or backends without the hook.
    pub fn unit_stats(&self) -> &[UnitArtifactStats] {
        &self.unit_stats
    }

    /// The current simulation time.
    pub fn time(&self) -> TimeValue {
        self.engine.time()
    }

    /// Arm (or disarm, with `RunControl::default()`) the engine's
    /// cooperative run control: a wall-clock deadline and an
    /// instrumentation probe, checked between scheduler cycles. This is
    /// how a server grants a fresh budget per command on a long-lived
    /// session — a deadline abort does not poison the session (see
    /// [`SimSession::step`]).
    pub fn set_control(&mut self, control: RunControl) {
        self.engine.set_control(control)
    }

    /// Run the initialization phase without advancing time (idempotent;
    /// [`SimSession::step`] calls it automatically).
    ///
    /// # Errors
    ///
    /// Propagates engine runtime errors.
    pub fn initialize(&mut self) -> Result<(), Error> {
        if let Err(e) = self.engine.initialize() {
            let e: Error = e.into();
            self.failed = Some(e.clone());
            return Err(e);
        }
        Ok(())
    }

    /// Advance by one scheduler cycle, feeding any attached sinks.
    /// Returns `false` once the run is exhausted (queue empty or end time
    /// reached).
    ///
    /// # Errors
    ///
    /// Propagates engine runtime errors.
    pub fn step(&mut self) -> Result<bool, Error> {
        match self.engine.step() {
            Ok(more) => {
                self.pump_sinks();
                Ok(more)
            }
            Err(SimError::DeadlineExceeded) => {
                // A deadline abort happens between cycles, with the
                // engine state fully consistent: the session stays
                // usable and can resume under a fresh budget, so it is
                // deliberately NOT recorded as a permanent failure.
                self.pump_sinks();
                Err(Error::DeadlineExceeded {
                    time_fs: self.engine.time().as_femtos(),
                })
            }
            Err(e) => {
                let e: Error = e.into();
                self.failed = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Resolve a signal by hierarchical name (suffix matching, like
    /// [`ElaboratedDesign::signal_by_name`]).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownSignal`] when nothing matches.
    pub fn signal(&self, name: &str) -> Result<SignalId, Error> {
        self.design
            .signal_by_name(name)
            .ok_or_else(|| Error::UnknownSignal(name.to_string()))
    }

    /// The current value of a signal, by name.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownSignal`] when nothing matches.
    pub fn peek(&self, name: &str) -> Result<ConstValue, Error> {
        Ok(self.engine.peek(self.signal(name)?))
    }

    /// The current value of a signal, by id.
    pub fn peek_id(&self, signal: SignalId) -> ConstValue {
        self.engine.peek(signal)
    }

    /// Schedule an external drive of a signal (by name), taking effect at
    /// the next delta step.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownSignal`] when nothing matches, and
    /// [`Error::Runtime`] when the value's type does not fit the signal
    /// (a mismatched width would otherwise abort deep inside the engine
    /// on a later step).
    pub fn poke(&mut self, name: &str, value: ConstValue) -> Result<(), Error> {
        let signal = self.signal(name)?;
        self.poke_id(signal, value)
    }

    /// Schedule an external drive of a signal (by id), taking effect at
    /// the next delta step.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] when the value's type does not fit the signal.
    pub fn poke_id(&mut self, signal: SignalId, value: ConstValue) -> Result<(), Error> {
        let expected = &self.design.signals[signal.0].ty;
        if &value.ty() != expected {
            return Err(Error::Runtime(format!(
                "poke of {} with a {} value (signal '{}' expects {})",
                value.ty(),
                value,
                self.design.signals[signal.0].name,
                expected
            )));
        }
        self.engine.poke(signal, value);
        Ok(())
    }

    /// Serialize the engine's complete execution state. Continuing a
    /// restored session produces the identical remaining trace to never
    /// having checkpointed. The checkpoint covers the *engine-internal*
    /// trace only: with sinks attached, events already streamed out are
    /// the sinks' business and are not replayed on restore.
    ///
    /// # Errors
    ///
    /// Replays the session's recorded failure, or propagates the
    /// engine's.
    pub fn checkpoint(&self) -> Result<EngineState, Error> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        Ok(self.engine.checkpoint()?)
    }

    /// Restore a checkpoint taken by a session of the same engine kind
    /// over the same design; this session should be freshly built with
    /// the same config.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] on an engine/design mismatch or corrupt bytes.
    pub fn restore(&mut self, state: &EngineState) -> Result<(), Error> {
        self.engine.restore(state)?;
        self.failed = None;
        Ok(())
    }

    /// Run to completion and return the result (equivalent to stepping
    /// until exhaustion, then [`SimSession::finish`]).
    ///
    /// # Errors
    ///
    /// Propagates engine runtime errors.
    pub fn run(mut self) -> Result<SimResult, Error> {
        while self.step()? {}
        self.finish()
    }

    /// Flush the sinks and assemble the final [`SimResult`].
    ///
    /// # Errors
    ///
    /// Replays the failure if any earlier `initialize`/`step` errored:
    /// the run's state is half-applied at that point (the failing cycle
    /// never completed), so there is no coherent result to assemble —
    /// returning one would silently hand out a wrong trace.
    pub fn finish(mut self) -> Result<SimResult, Error> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        self.pump_sinks();
        for sink in self.sinks.iter_mut() {
            sink.finish();
        }
        let mut result = self.engine.finish();
        if let Some(trace) = self.session_trace.take() {
            result.trace = trace;
        }
        Ok(result)
    }

    /// Forward freshly recorded events to the sinks (and the in-memory
    /// session trace, when kept).
    fn pump_sinks(&mut self) {
        if self.sinks.is_empty() {
            return;
        }
        self.drain_buf.clear();
        self.engine.drain_trace_into(&mut self.drain_buf);
        for event in &self.drain_buf {
            let id = SignalId(event.signal as usize);
            let name = &self.design.signals[id.0].name;
            for sink in self.sinks.iter_mut() {
                sink.event(&event.time, id, name, &event.value);
            }
        }
        if let Some(trace) = &mut self.session_trace {
            trace.extend_events(self.drain_buf.drain(..));
        }
    }

    /// Run a batch of simulation jobs across std threads, one worker per
    /// core (bounded by the job count; the calling thread is one of
    /// them), returning the per-job results in order. Jobs are
    /// independent sessions; pass a shared [`DesignCache`] to
    /// elaborate/compile each distinct design once for the whole batch.
    ///
    /// ```
    /// use llhd_sim::api::{BatchJob, DesignCache, SimSession};
    /// use llhd_sim::SimConfig;
    ///
    /// let module = llhd::assembly::parse_module(
    ///     "proc @pulse () -> (i1$ %q) {
    ///     entry:
    ///         %on = const i1 1
    ///         %t = const time 2ns
    ///         drv i1$ %q, %on after %t
    ///         halt
    ///     }",
    /// )
    /// .unwrap();
    /// // Four runs of one design, different end times, one elaboration.
    /// let jobs: Vec<BatchJob> = (1..=4)
    ///     .map(|i| BatchJob::new(&module, "pulse", SimConfig::until_nanos(10 * i)))
    ///     .collect();
    /// let cache = DesignCache::new();
    /// let results = SimSession::run_batch(&jobs, Some(&cache));
    /// assert!(results.iter().all(|r| r.is_ok()));
    /// assert_eq!(cache.elaborate_misses(), 1);
    /// assert_eq!(cache.elaborate_hits(), 3);
    /// ```
    pub fn run_batch(
        jobs: &[BatchJob<'_>],
        cache: Option<&DesignCache>,
    ) -> Vec<Result<SimResult, Error>> {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(jobs.len())
            .max(1);
        // Fingerprint each distinct module once for the whole batch (jobs
        // routinely share one module), so cached workers don't re-encode
        // it per job. Jobs carrying a precomputed [`BatchJob::cache_key`]
        // skip even that one encode — the steady state of the server's
        // dispatcher, which knows every resident design's key already.
        let keys: Vec<Option<u128>> = if cache.is_some() {
            let mut memo: HashMap<*const Module, u128> = HashMap::new();
            jobs.iter()
                .map(|job| {
                    Some(job.cache_key.unwrap_or_else(|| {
                        *memo
                            .entry(std::ptr::from_ref(job.module))
                            .or_insert_with(|| DesignCache::fingerprint(job.module))
                    }))
                })
                .collect()
        } else {
            vec![None; jobs.len()]
        };
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<SimResult, Error>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs.len() {
                break;
            }
            let job = &jobs[i];
            let mut builder = SimSession::builder(job.module, job.top)
                .engine(job.engine)
                .config(job.config.clone());
            if let (Some(cache), Some(key)) = (cache, keys[i]) {
                builder = builder.cache(cache).cache_key(key);
            }
            // Panic isolation: a panicking engine must cost its own job an
            // `Error::Panic`, not unwind through the scope (or, on the
            // inline worker, into the caller) and take the sibling jobs
            // down with it.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                builder.build().and_then(|session| session.run())
            }))
            .unwrap_or_else(|payload| {
                // A panic mid-build may have poisoned the job's cache
                // slot; evict poisoned entries so the next request for the
                // same design recompiles instead of wedging on the poison
                // forever.
                if let Some(cache) = cache {
                    cache.sweep_poisoned();
                }
                Err(Error::Panic(panic_message(&*payload)))
            });
            *lock_recover(&slots[i]) = Some(result);
        };
        // The caller is one of the workers: a one-job batch (the server's
        // common case) spawns nothing.
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(worker);
            }
            worker();
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("every batch slot is filled by a worker")
            })
            .collect()
    }
}

/// One entry of a [`SimSession::run_batch`] workload.
#[derive(Clone)]
pub struct BatchJob<'a> {
    /// The module holding the design.
    pub module: &'a Module,
    /// The top-level unit to elaborate.
    pub top: &'a str,
    /// Engine selection for this job.
    pub engine: EngineKind,
    /// Run configuration for this job.
    pub config: SimConfig,
    /// A precomputed [`DesignCache::fingerprint`] of `module`, if the
    /// caller already knows it: the batch then skips re-encoding the
    /// module for its cache key. Same contract as
    /// [`SessionBuilder::cache_key`] — a stale key silently maps to a
    /// different cache entry. Ignored when the batch runs uncached.
    pub cache_key: Option<u128>,
}

impl<'a> BatchJob<'a> {
    /// A job with the default ([`EngineKind::Auto`]) engine.
    pub fn new(module: &'a Module, top: &'a str, config: SimConfig) -> Self {
        BatchJob {
            module,
            top,
            engine: EngineKind::Auto,
            config,
            cache_key: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd::assembly::parse_module;

    const BLINK: &str = r#"
        proc @blink () -> (i1$ %led) {
        entry:
            %on = const i1 1
            %off = const i1 0
            %delay = const time 5ns
            drv i1$ %led, %on after %delay
            wait %next for %delay
        next:
            drv i1$ %led, %off after %delay
            wait %entry for %delay
        }
    "#;

    #[test]
    fn session_runs_on_the_interpreter() {
        let module = parse_module(BLINK).unwrap();
        let session = SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .until_nanos(100)
            .build()
            .unwrap();
        assert_eq!(session.engine_name(), "interp");
        let result = session.run().unwrap();
        assert!(result.trace.changes_of("led").count() >= 18);
    }

    #[test]
    fn stepped_session_matches_uninterrupted_run() {
        let module = parse_module(BLINK).unwrap();
        let full = SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .until_nanos(100)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let mut chunked = SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .until_nanos(100)
            .build()
            .unwrap();
        // Advance in odd chunks: 1 step, then 3, then the rest.
        for chunk in [1usize, 3] {
            for _ in 0..chunk {
                chunked.step().unwrap();
            }
        }
        while chunked.step().unwrap() {}
        let stepped = chunked.finish().unwrap();
        assert_eq!(full.trace.events(), stepped.trace.events());
        assert_eq!(full.end_time, stepped.end_time);
        assert_eq!(full.signal_changes, stepped.signal_changes);
    }

    #[test]
    fn checkpoint_resume_is_byte_identical() {
        let module = parse_module(BLINK).unwrap();
        let full = SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .until_nanos(100)
            .build()
            .unwrap()
            .run()
            .unwrap();
        // Run a few cycles, checkpoint, drop the session entirely.
        let mut first = SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .until_nanos(100)
            .build()
            .unwrap();
        for _ in 0..5 {
            first.step().unwrap();
        }
        let state = first.checkpoint().unwrap();
        assert_eq!(state.engine_name().unwrap(), "interp");
        drop(first);
        // Restore into a fresh session and continue to completion.
        let mut resumed = SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .until_nanos(100)
            .build()
            .unwrap();
        resumed.restore(&state).unwrap();
        while resumed.step().unwrap() {}
        let result = resumed.finish().unwrap();
        assert_eq!(full.trace.events(), result.trace.events());
        assert_eq!(full.end_time, result.end_time);
        assert_eq!(full.signal_changes, result.signal_changes);
        assert_eq!(full.activations, result.activations);
    }

    #[test]
    fn checkpoint_roundtrips_through_raw_bytes() {
        let module = parse_module(BLINK).unwrap();
        let mut session = SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .until_nanos(100)
            .build()
            .unwrap();
        session.step().unwrap();
        let state = session.checkpoint().unwrap();
        // The wire round-trip: raw bytes out, validated state back in.
        let revived = EngineState::from_bytes(state.as_bytes().to_vec()).unwrap();
        assert_eq!(state, revived);
        assert!(EngineState::from_bytes(b"not a checkpoint".to_vec()).is_err());
        let mut truncated = state.as_bytes().to_vec();
        truncated.truncate(truncated.len() / 2);
        // A truncated body parses its header but must fail to restore.
        if let Ok(bad) = EngineState::from_bytes(truncated) {
            let mut target = SimSession::builder(&module, "blink")
                .engine(EngineKind::Interpret)
                .until_nanos(100)
                .build()
                .unwrap();
            assert!(target.restore(&bad).is_err());
        }
    }

    #[test]
    fn restore_rejects_mismatched_designs() {
        let module = parse_module(BLINK).unwrap();
        let other = parse_module(
            r#"
            entity @top () -> () {
                %zero = const i8 0
                %a = sig i8 %zero
                %b = sig i8 %zero
            }
            "#,
        )
        .unwrap();
        let mut session = SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .until_nanos(100)
            .build()
            .unwrap();
        session.step().unwrap();
        let state = session.checkpoint().unwrap();
        let mut target = SimSession::builder(&other, "top")
            .engine(EngineKind::Interpret)
            .until_nanos(100)
            .build()
            .unwrap();
        let err = target.restore(&state).unwrap_err();
        assert!(matches!(err, Error::Runtime(_)), "{}", err);
    }

    #[test]
    fn peek_and_poke_interact_with_the_run() {
        let module = parse_module(
            r#"
            entity @follower (i8$ %a) -> (i8$ %q) {
                %ap = prb i8$ %a
                %delay = const time 1ns
                drv i8$ %q, %ap after %delay
            }
            entity @top () -> () {
                %zero = const i8 0
                %a = sig i8 %zero
                %q = sig i8 %zero
                inst @follower (%a) -> (%q)
            }
            "#,
        )
        .unwrap();
        let mut session = SimSession::builder(&module, "top")
            .engine(EngineKind::Interpret)
            .until_nanos(100)
            .build()
            .unwrap();
        session.initialize().unwrap();
        assert_eq!(session.peek("a").unwrap(), ConstValue::int(8, 0));
        session.poke("a", ConstValue::int(8, 42)).unwrap();
        while session.step().unwrap() {}
        assert_eq!(session.peek("q").unwrap(), ConstValue::int(8, 42));
        assert!(matches!(
            session.peek("nonexistent"),
            Err(Error::UnknownSignal(_))
        ));
        // A value that does not fit the signal is rejected up front, not
        // deep inside the engine on the next step.
        assert!(matches!(
            session.poke("a", ConstValue::int(16, 300)),
            Err(Error::Runtime(_))
        ));
    }

    #[test]
    fn compile_without_backend_is_a_clean_error() {
        // The backend registry is process-global and another test (or the
        // blaze crate) may have registered one; only assert the negative
        // when none is present.
        if compile_backend().is_some() {
            return;
        }
        let module = parse_module(BLINK).unwrap();
        let err = SimSession::builder(&module, "blink")
            .engine(EngineKind::Compile)
            .build()
            .err()
            .expect("no backend registered in llhd-sim's own tests");
        assert!(matches!(err, Error::BackendUnavailable(_)));
        // Auto degrades to the interpreter instead of failing.
        let session = SimSession::builder(&module, "blink").build().unwrap();
        assert_eq!(session.engine_kind(), EngineKind::Interpret);
    }

    #[test]
    fn unknown_top_surfaces_as_elaborate_error() {
        let module = parse_module(BLINK).unwrap();
        let err = SimSession::builder(&module, "missing")
            .build()
            .err()
            .unwrap();
        assert!(matches!(err, Error::Elaborate(ElaborateError::UnknownTop(_))));
        assert!(err.to_string().contains("missing"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn memory_sink_and_change_counter_observe_the_run() {
        let module = parse_module(BLINK).unwrap();
        let mut copy = Trace::new();
        let mut counter = ChangeCounter::new();
        let result = SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .until_nanos(50)
            .sink(&mut copy)
            .sink(&mut counter)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(result.trace, copy);
        assert_eq!(counter.total(), result.trace.len());
        assert_eq!(counter.count_of("blink.led"), result.trace.len());
    }

    #[test]
    fn keep_trace_false_streams_without_accumulating() {
        let module = parse_module(BLINK).unwrap();
        let mut counter = ChangeCounter::new();
        // `without_trace()` in the config is overridden by the attached
        // sink: sinks imply event recording.
        let result = SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .config(SimConfig::until_nanos(50).without_trace())
            .sink(&mut counter)
            .keep_trace(false)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(result.trace.is_empty());
        assert!(counter.total() >= 9);
        // The statistics still reflect the full run.
        assert_eq!(result.signal_changes, counter.total());
        // With no sinks either, recording is disabled outright: the run
        // statistics survive, the trace stays empty.
        let stats_only = SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .until_nanos(50)
            .keep_trace(false)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(stats_only.trace.is_empty());
        assert_eq!(stats_only.signal_changes, counter.total());
    }

    #[test]
    fn vcd_sink_matches_in_memory_vcd() {
        let module = parse_module(BLINK).unwrap();
        let mut vcd = VcdSink::new("1fs");
        let result = SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .until_nanos(60)
            .sink(&mut vcd)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(!result.trace.is_empty());
        assert_eq!(vcd.into_string(), result.trace.to_vcd("1fs"));
    }

    #[test]
    fn design_cache_hits_and_misses() {
        let module = parse_module(BLINK).unwrap();
        let cache = DesignCache::new();
        let first = SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .until_nanos(20)
            .cache(&cache)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(cache.elaborate_misses(), 1);
        assert_eq!(cache.elaborate_hits(), 0);
        let second = SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .until_nanos(20)
            .cache(&cache)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(cache.elaborate_hits(), 1);
        assert_eq!(cache.elaborate_misses(), 1);
        assert_eq!(first.trace.events(), second.trace.events());
        // A different module is a different key.
        let other = parse_module(BLINK.replace("5ns", "7ns").as_str()).unwrap();
        SimSession::builder(&other, "blink")
            .engine(EngineKind::Interpret)
            .cache(&cache)
            .build()
            .unwrap();
        assert_eq!(cache.elaborate_misses(), 2);
        assert_eq!(cache.len(), 2);
        // A failed elaboration must not leak a placeholder entry.
        assert!(SimSession::builder(&module, "missing_top")
            .cache(&cache)
            .build()
            .is_err());
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    /// A module per distinct delay value, so each is a distinct cache key.
    fn blink_with_delay(ns: usize) -> Module {
        parse_module(BLINK.replace("5ns", &format!("{}ns", ns)).as_str()).unwrap()
    }

    #[test]
    fn bounded_cache_stays_within_capacity_and_evicts_lru() {
        let cache = DesignCache::with_capacity(3);
        assert_eq!(cache.capacity(), Some(3));
        // Many distinct designs through a small cache: the live set stays
        // bounded no matter how many designs flow through (the regression
        // this guards: the cache used to only grow).
        for i in 1..=10 {
            let module = blink_with_delay(i);
            SimSession::builder(&module, "blink")
                .engine(EngineKind::Interpret)
                .cache(&cache)
                .build()
                .unwrap();
            assert!(cache.len() <= 3, "cache grew past its capacity");
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 7);
        assert_eq!(cache.elaborate_misses(), 10);
        // The most recently used designs survived: looking them up again
        // hits; the coldest design was evicted and must re-elaborate.
        let hot = blink_with_delay(10);
        SimSession::builder(&hot, "blink").cache(&cache).build().unwrap();
        assert_eq!(cache.elaborate_hits(), 1);
        let cold = blink_with_delay(1);
        SimSession::builder(&cold, "blink").cache(&cache).build().unwrap();
        assert_eq!(cache.elaborate_misses(), 11, "evicted design must miss");
        // Recency, not insertion order, decides the victim: keep touching
        // one design while inserting others and it must survive.
        let pinned = blink_with_delay(100);
        SimSession::builder(&pinned, "blink").cache(&cache).build().unwrap();
        for i in 20..=25 {
            let module = blink_with_delay(i);
            SimSession::builder(&module, "blink")
                .engine(EngineKind::Interpret)
                .cache(&cache)
                .build()
                .unwrap();
            SimSession::builder(&pinned, "blink").cache(&cache).build().unwrap();
        }
        let hits_before = cache.elaborate_hits();
        SimSession::builder(&pinned, "blink").cache(&cache).build().unwrap();
        assert_eq!(cache.elaborate_hits(), hits_before + 1, "pinned design was evicted");
    }

    #[test]
    fn eviction_does_not_disturb_in_flight_sessions() {
        let module = parse_module(BLINK).unwrap();
        let uncached = SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .until_nanos(100)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let cache = DesignCache::with_capacity(1);
        let mut session = SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .until_nanos(100)
            .cache(&cache)
            .build()
            .unwrap();
        // Step partway, then evict the design out from under the session
        // (both by capacity pressure and by an outright clear): the session
        // holds its own `Arc` and must finish identically.
        for _ in 0..5 {
            session.step().unwrap();
        }
        let other = blink_with_delay(9);
        SimSession::builder(&other, "blink").cache(&cache).build().unwrap();
        assert_eq!(cache.evictions(), 1);
        cache.clear();
        while session.step().unwrap() {}
        let evicted = session.finish().unwrap();
        assert_eq!(uncached.trace.events(), evicted.trace.events());
        assert_eq!(uncached.end_time, evicted.end_time);
    }

    #[test]
    fn cache_stats_snapshot_reports_the_surface() {
        let cache = DesignCache::with_capacity(8);
        let a = blink_with_delay(3);
        let b = blink_with_delay(4);
        for _ in 0..3 {
            SimSession::builder(&a, "blink").cache(&cache).build().unwrap();
        }
        SimSession::builder(&b, "blink").cache(&cache).build().unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.capacity, Some(8));
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.elaborate_misses, 2);
        assert_eq!(stats.elaborate_hits, 2);
        assert!(stats.approx_bytes > 0, "filled entries must report bytes");
        // Per-design runs, most-used first.
        assert_eq!(stats.designs.len(), 2);
        assert_eq!(stats.designs[0].runs, 3);
        assert_eq!(stats.designs[1].runs, 1);
        assert!(!stats.designs[0].compiled);
        // Shrinking the capacity evicts immediately, least recently used
        // first (touch the hot design so recency and run count agree).
        SimSession::builder(&a, "blink").cache(&cache).build().unwrap();
        cache.set_capacity(Some(1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
        let survivor = cache.stats();
        assert_eq!(survivor.designs[0].runs, 4, "LRU kept the hot design");
    }

    #[test]
    fn batch_runner_matches_individual_runs() {
        let module = parse_module(BLINK).unwrap();
        let jobs: Vec<BatchJob> = (1..=4)
            .map(|i| {
                BatchJob {
                    module: &module,
                    top: "blink",
                    engine: EngineKind::Interpret,
                    config: SimConfig::until_nanos(10 * i),
                    cache_key: None,
                }
            })
            .collect();
        let cache = DesignCache::new();
        let results = SimSession::run_batch(&jobs, Some(&cache));
        assert_eq!(results.len(), 4);
        for (job, result) in jobs.iter().zip(&results) {
            let result = result.as_ref().unwrap();
            let solo = SimSession::builder(job.module, job.top)
                .engine(job.engine)
                .config(job.config.clone())
                .build()
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(solo.trace.events(), result.trace.events());
        }
        // All four jobs share one design: one miss, three hits.
        assert_eq!(cache.elaborate_misses(), 1);
        assert_eq!(cache.elaborate_hits(), 3);
    }

    /// A one-job batch runs on the calling thread, so its panic isolation
    /// is what stands between a panicking engine and the caller.
    #[test]
    fn a_panicking_job_in_a_one_job_batch_stays_in_its_slot() {
        let module = parse_module(BLINK).unwrap();
        let caller = std::thread::current().id();
        let ran_on = Arc::new(Mutex::new(None));
        let mut config = SimConfig::until_nanos(100);
        config.control.probe = Some({
            let ran_on = Arc::clone(&ran_on);
            Arc::new(move || {
                *ran_on.lock().unwrap() = Some(std::thread::current().id());
                panic!("injected probe panic");
            })
        });
        let jobs = [BatchJob::new(&module, "blink", config)];
        let results = SimSession::run_batch(&jobs, None);
        assert_eq!(*ran_on.lock().unwrap(), Some(caller), "one job spawns no thread");
        match &results[..] {
            [Err(Error::Panic(message))] => assert!(message.contains("injected probe panic")),
            other => panic!("expected one Error::Panic, got {:?}", other),
        }
    }

    #[test]
    fn failed_initialization_poisons_the_session() {
        // `ret` is illegal in a process, so the initial activation fails.
        let module = parse_module(
            r#"
            proc @bad () -> () {
            entry:
                ret
            }
            "#,
        )
        .unwrap();
        let mut session = SimSession::builder(&module, "bad")
            .engine(EngineKind::Interpret)
            .build()
            .unwrap();
        let first = session.initialize().unwrap_err();
        assert!(matches!(first, Error::Runtime(_)));
        // Later attempts replay the failure instead of silently running a
        // half-initialized design.
        assert_eq!(session.initialize().unwrap_err(), first);
        assert_eq!(session.step().unwrap_err(), first);
        // And no half-applied result can be assembled.
        assert_eq!(session.finish().unwrap_err(), first);
    }

    #[test]
    fn failed_step_poisons_the_session() {
        // A zero-delay inverter loop oscillates forever within one
        // instant; the delta-cycle guard fails the step mid-run.
        let module = parse_module(
            r#"
            entity @inv (i1$ %a) -> (i1$ %q) {
                %ap = prb i1$ %a
                %n = not i1 %ap
                %delay = const time 0s
                drv i1$ %q, %n after %delay
            }
            entity @top () -> () {
                %zero = const i1 0
                %x = sig i1 %zero
                %y = sig i1 %zero
                inst @inv (%x) -> (%y)
                inst @inv (%y) -> (%x)
            }
            "#,
        )
        .unwrap();
        let mut session = SimSession::builder(&module, "top")
            .engine(EngineKind::Interpret)
            .until_nanos(10)
            .build()
            .unwrap();
        let first = loop {
            match session.step() {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(first, Error::Runtime(_)));
        // A half-applied cycle must not be resumable: the error replays,
        // and no result can be assembled from it.
        assert_eq!(session.step().unwrap_err(), first);
        assert_eq!(session.finish().unwrap_err(), first);
    }

    #[test]
    fn error_display_is_descriptive() {
        let e = Error::Compile("bad phi".to_string());
        assert_eq!(e.to_string(), "compile error: bad phi");
        let e = Error::UnknownSignal("clk".to_string());
        assert_eq!(e.to_string(), "unknown signal 'clk'");
        let e: Error = SimError::Runtime("boom".to_string()).into();
        assert_eq!(e.to_string(), "runtime error: boom");
    }
}
