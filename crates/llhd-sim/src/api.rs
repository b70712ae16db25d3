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
//!   engine is this crate's [`blaze`](crate::blaze) module, so `Auto`
//!   compiles in every process, and a module blaze rejects is a
//!   [`Error::Compile`].
//! * [`SimResult::trace`] — the one trace a run produces, recorded by the
//!   engine and rendered with [`Trace::to_vcd`](crate::Trace::to_vcd);
//!   [`SessionBuilder::without_trace`] turns recording off and keeps the
//!   run statistics.
//! * [`EngineState`] — a checkpoint of an engine's execution state,
//!   stamped with a structural hash of the elaborated design so a blob is
//!   refused by a design whose signals or instances differ.
//! * [`DesignCache`] — memoizes elaborated and compiled designs keyed by
//!   module content hash, so repeat simulations of the same module skip
//!   elaboration and `compile_design` entirely.
//! * [`SimSession::run_batch`] — fans a slice of [`BatchJob`]s across std
//!   threads, one worker per core.

use crate::blaze::{compile_design, BlazeSimulator, CompileError, CompiledDesign};
use crate::design::{elaborate, ElaborateError, ElaboratedDesign, SignalId, SignalInfo};
use crate::engine::{RunControl, SimConfig, SimError, SimResult, Simulator};
use llhd::assembly::{parse_module, ParseError};
use llhd::ir::Module;
use llhd::value::{ConstValue, TimeValue};
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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

impl From<CompileError> for Error {
    fn from(e: CompileError) -> Self {
        Error::Compile(e.0)
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
// The engine trait
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
/// An engine owns everything it reads (`Send`), so a session can live in
/// a table and be driven from whichever thread holds it next.
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
pub trait Engine: Send {
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
    /// Assemble the result of the run so far (stats plus the trace).
    fn finish(&mut self) -> SimResult;
    /// Serialize the engine's complete execution state — signal values,
    /// event queue, per-instance state, counters, and the trace recorded
    /// so far — into an [`EngineState`]. Continuing from a restored
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
    /// design of a different structure, or on corrupt bytes.
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
/// The header carries a structural hash of the elaborated design — signal
/// names, types and alias targets, instance names, units and kinds — so a
/// restore of a blob taken over a design of another structure fails
/// cleanly instead of resuming foreign state. Unit bodies are not
/// covered. It is the only version [`Engine::restore`] accepts.
pub const ENGINE_STATE_VERSION: u8 = 3;

/// A serialized engine execution state, produced by [`Engine::checkpoint`]
/// and consumed by [`Engine::restore`].
///
/// The payload is an opaque binary blob built on the bitcode primitives
/// (varints and the constant codec of [`llhd::bitcode`]): a common header
/// — magic, version, engine name, design shape and hash — followed by the shared
/// scheduler-core section and an engine-specific section. It is
/// self-describing enough to be stored, sent over the wire (the server's
/// `session.checkpoint` hex-encodes it), and validated on restore, but it
/// is *not* a migration format: restore requires the same engine kind
/// over the same design.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EngineState(Vec<u8>);

impl EngineState {
    /// Assemble a checkpoint: the common header identifying `engine`, the
    /// design shape, and the design hash, then whatever `body` appends.
    pub fn encode(
        engine: &str,
        num_signals: usize,
        num_instances: usize,
        design_hash: u64,
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
        write_varint(&mut out, design_hash as u128);
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
        let name_end = pos
            .checked_add(name_len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(corrupt)?;
        let name = std::str::from_utf8(&bytes[pos..name_end]).map_err(|_| corrupt())?;
        pos = name_end;
        let num_signals = read_varint(bytes, &mut pos).ok_or_else(corrupt)? as usize;
        let num_instances = read_varint(bytes, &mut pos).ok_or_else(corrupt)? as usize;
        let design_hash = read_varint(bytes, &mut pos).ok_or_else(corrupt)? as u64;
        Ok((name, num_signals, num_instances, design_hash, pos))
    }

    /// Validate the header against the restoring engine and design and
    /// return the offset of the body plus the recorded design hash.
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
        let (name, signals, instances, design_hash, body) = self.header()?;
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
        Ok((body, design_hash))
    }

    /// The design hash recorded in the header.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Runtime`] on a corrupt header.
    pub fn design_hash(&self) -> Result<u64, SimError> {
        Ok(self.header()?.3)
    }
}

/// Per-unit statistics of a compiled design
/// ([`CompiledDesign::unit_stats`]), so introspection surfaces (the
/// server's `session.query` stats request) can show what compilation
/// actually did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitArtifactStats {
    /// The unit name.
    pub name: String,
    /// `"process"`, `"entity"`, or `"function"`.
    pub kind: &'static str,
    /// Generic compiled operations (the base op stream).
    pub base_ops: usize,
    /// Superinstructions after lowering (every unit lowers, functions
    /// included).
    pub superops: usize,
    /// Instances of this unit in the elaborated design.
    pub instances: usize,
    /// Instances that received per-instance specialized code.
    pub specialized_instances: usize,
}

/// Which engine a session runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineKind {
    /// Pick automatically: the compiled engine, always (a module blaze
    /// rejects is a compile error, as with `Compile`). Compilation repays
    /// itself within a few simulated cycles on every design measured (the
    /// benchmark's `blaze.breakeven_cycles`), so module size predicts
    /// nothing.
    #[default]
    Auto,
    /// The reference interpreter ([`crate::engine`]).
    Interpret,
    /// The ahead-of-time compiled engine ([`crate::blaze`]).
    Compile,
}

/// Module size from which [`EngineKind::Auto`] compiles: zero, that is,
/// every module. `Auto` itself does not read it; it is exported for
/// callers that mirror `Auto`'s rule by hand as `insts >= this`, which at
/// zero says what `Auto` does.
pub const AUTO_COMPILE_MIN_INSTS: usize = 0;

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

/// The artifacts built for one `(design, top)`, behind the fill lock.
#[derive(Default)]
struct CacheEntry {
    elaborated: Option<Arc<ElaboratedDesign>>,
    compiled: Option<Arc<CompiledDesign>>,
}

/// One lockable fill slot per `(design, top)`.
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

/// Map-level bookkeeping for one `(design, top)`. Lives *outside* the
/// fill lock so the eviction scan and [`DesignCache::stats`] never have
/// to take fill locks that may be held across an elaboration or
/// compilation.
#[derive(Default)]
struct CacheSlot {
    entry: SharedCacheEntry,
    /// Number of lookups that resolved to this top (each lookup is one
    /// prospective simulation run).
    runs: usize,
    /// Rough retained size, updated after each fill (see
    /// [`approx_elaborated_bytes`] for what "rough" means).
    approx_bytes: usize,
    /// Whether a compiled artifact has been stored.
    compiled: bool,
}

/// One design in the store, under its key: the module, the text it was
/// submitted as, and what was built from it for each top. The module and
/// the text live at the map level, outside every fill lock, so a fill
/// that panics loses only its own artifacts.
#[derive(Default)]
struct StoredDesign {
    /// The parsed module, when one was handed to the store
    /// ([`DesignCache::module_for_source`]); `None` for a design only ever
    /// built from a module its caller owns.
    module: Option<Arc<Module>>,
    /// The source text the module was last submitted as, with its memo
    /// hash.
    source: Option<(u64, Box<str>)>,
    /// The per-top artifacts.
    tops: HashMap<String, CacheSlot>,
    /// Logical timestamp of the most recent lookup (LRU order).
    last_used: u64,
}

impl StoredDesign {
    /// Whether a lookup holds this design, so evicting it now would
    /// orphan work in progress: a fill slot is handed out (its `Arc` has
    /// a second owner until the fill completes), or the design is fresh —
    /// nothing built yet — and a caller holds its module between
    /// resolving it and building from it.
    fn held(&self) -> bool {
        self.tops
            .values()
            .any(|slot| Arc::strong_count(&slot.entry) > 1)
            || (self.tops.is_empty()
                && self
                    .module
                    .as_ref()
                    .is_some_and(|module| Arc::strong_count(module) > 1))
    }
}

/// The map behind the store: the designs, the source memo, and the
/// logical clock that orders the designs for eviction.
#[derive(Default)]
struct CacheMap {
    designs: HashMap<u128, StoredDesign>,
    /// Source memo: the hash of a stored text → the key of its design.
    /// Removed with the design.
    memo: HashMap<u64, u128>,
    tick: u64,
}

impl CacheMap {
    /// The design under `key`, created empty if absent, stamped as the
    /// most recently used.
    fn touch(&mut self, key: u128) -> &mut StoredDesign {
        self.tick += 1;
        let design = self.designs.entry(key).or_default();
        design.last_used = self.tick;
        design
    }

    /// Drop the design under `key` and its memo entry.
    fn remove(&mut self, key: u128) {
        let source = self.designs.remove(&key).and_then(|design| design.source);
        if let Some((hash, _)) = source {
            if self.memo.get(&hash) == Some(&key) {
                self.memo.remove(&hash);
            }
        }
    }
}

/// The memo hash of a source text (64-bit SipHash with fixed keys). A
/// memo hit is confirmed by comparing the whole text, so two texts that
/// share a hash only cost the second one a parse.
fn source_hash(text: &str) -> u64 {
    let mut hasher = std::hash::DefaultHasher::new();
    text.hash(&mut hasher);
    hasher.finish()
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
            std::mem::size_of_val(i)
                + i.name.len()
                + i.signal_map.len() * 4 * std::mem::size_of::<usize>()
        })
        .sum();
    // The alias table is one usize per signal.
    signals + instances + design.signals.len() * std::mem::size_of::<usize>()
}

/// Per-`(design, top)` store statistics, part of [`CacheStats`].
#[derive(Clone, Debug)]
pub struct DesignStats {
    /// The design's content hash ([`DesignCache::fingerprint`]).
    pub fingerprint: u128,
    /// The top-level unit the design was elaborated for.
    pub top: String,
    /// Number of lookups served for this top (hits + the filling miss).
    pub runs: usize,
    /// Rough retained bytes for this top's artifacts.
    pub approx_bytes: usize,
    /// Whether a compiled artifact is cached alongside the elaboration.
    pub compiled: bool,
}

/// A point-in-time snapshot of a [`DesignCache`]'s observability surface:
/// hit/miss/eviction counters, live-design count, a bytes-ish retained-size
/// estimate, and per-top run counts (sorted most-used first). This is
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
    /// Designs evicted to keep the store within its capacity, plus fills
    /// dropped because they panicked.
    pub evictions: usize,
    /// Designs currently stored.
    pub entries: usize,
    /// Stored designs that hold their module, so a lookup by key
    /// ([`DesignCache::module`]) finds them.
    pub modules: usize,
    /// Maximum number of stored designs (`None` = unbounded).
    pub capacity: Option<usize>,
    /// Rough retained bytes across all live artifacts.
    pub approx_bytes: usize,
    /// Per-`(design, top)` statistics, sorted by `runs` descending.
    pub designs: Vec<DesignStats>,
}

/// The design store: one entry per design key
/// ([`DesignCache::fingerprint`]), holding the module, the source text it
/// was submitted as, and the elaborated and ahead-of-time-compiled
/// artifacts built from it for each top unit.
///
/// A session built with [`SessionBuilder::cache`] looks its design up
/// here first: on a hit, elaboration (and for the compiled engine, the
/// whole `compile_design` step) is skipped and the shared artifact is
/// reused. The store is `Sync` — one instance can serve
/// [`SimSession::run_batch`] workers concurrently, and the server keeps
/// exactly one. Each `(design, top)` has its own fill lock, held across
/// the fill: concurrent lookups of the *same* design elaborate and
/// compile exactly once (the second caller blocks briefly, then hits),
/// while different designs proceed in parallel.
///
/// A module handed to the store ([`DesignCache::module_for_source`]) is
/// kept with its design, so a later request can name the design by key
/// alone ([`DesignCache::module`]). The text it came from is kept too,
/// under a source memo: the 64-bit hash of a stored text maps to its key,
/// and a resent text whose hash and whole text match is served without
/// being parsed or fingerprinted again. Capacity, least-recently-used
/// order and eviction are per design: an evicted design takes its
/// module, its text, its memo entry and all its artifacts with it.
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
    /// Eviction only drops the store's *reference* to a design: sessions
    /// already running on an evicted design keep their own [`Arc`]s and
    /// are unaffected. A design some lookup currently holds (mid-fill, or
    /// resolved by [`DesignCache::module_for_source`] and not yet built)
    /// is never evicted, so the live count can transiently exceed the
    /// capacity by the number of concurrent lookups.
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
    /// skipping `keep` (the design being served right now) and any design
    /// a lookup holds: evicting a fill in progress would orphan it (the
    /// artifacts and stats would land in a detached slot and the next
    /// lookup would redo the work). Called with the map lock held.
    fn evict_over_capacity(&self, map: &mut CacheMap, keep: Option<u128>) {
        let capacity = self.capacity.load(Ordering::Relaxed);
        if capacity == 0 {
            return;
        }
        while map.designs.len() > capacity {
            let victim = map
                .designs
                .iter()
                .filter(|&(&key, design)| keep != Some(key) && !design.held())
                .min_by_key(|(_, design)| design.last_used)
                .map(|(&key, _)| key);
            match victim {
                Some(key) => {
                    map.remove(key);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Everything else is held: leave the overshoot in place
                // rather than spin; the next lookup retries.
                None => break,
            }
        }
    }

    /// Lock a fill slot, recovering from poison by dropping its
    /// artifacts: a poisoned slot means a fill (or a panic injected by
    /// the fault harness) unwound while holding the lock, so the
    /// possibly half-built artifacts are discarded and the caller
    /// refills from scratch instead of wedging every future lookup of
    /// this design behind a `PoisonError`. The design's module and text
    /// sit outside the lock and are untouched.
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

    /// Drop the artifacts of every fill whose lock is poisoned (a fill
    /// panicked while holding it and nobody has re-requested that top
    /// since). The design itself stays, with its module and text, so a
    /// request by key still resolves. The batch runner and the server
    /// call this after catching a panic; a no-op when nothing is
    /// poisoned.
    pub fn sweep_poisoned(&self) {
        let mut map = lock_recover(&self.entries);
        let mut dropped = 0;
        for design in map.designs.values_mut() {
            design.tops.retain(|_, slot| {
                let poisoned = slot.entry.is_poisoned();
                dropped += usize::from(poisoned);
                !poisoned
            });
        }
        // A design built only from caller-owned modules is nothing
        // without its artifacts.
        map.designs
            .retain(|_, design| design.module.is_some() || !design.tops.is_empty());
        self.evictions.fetch_add(dropped, Ordering::Relaxed);
    }

    /// The content hash used as the cache key for `module`. This encodes
    /// the module to bitcode (O(module size)); callers that look the same
    /// module up repeatedly should compute it once and use the `_keyed`
    /// entry points (or [`SessionBuilder::cache_key`]).
    pub fn fingerprint(module: &Module) -> u128 {
        fnv1a_128(&llhd::bitcode::encode_module(module))
    }

    /// The stored module and key for a source text in LLHD assembly.
    ///
    /// A text the store holds (a source memo hit: same hash, same whole
    /// text) is served as is, with no parse and no fingerprint. Any other
    /// text is parsed and fingerprinted, then stored with its design,
    /// which becomes the most recently used; the least recently used
    /// design beyond capacity is evicted. Two texts that parse to the
    /// same module share one key and one stored module; the memo keeps
    /// the text that came last.
    ///
    /// # Errors
    ///
    /// The parse error of a text that is not valid LLHD assembly; nothing
    /// is stored then.
    pub fn module_for_source(&self, source: &str) -> Result<(Arc<Module>, u128), ParseError> {
        let hash = source_hash(source);
        {
            let mut map = lock_recover(&self.entries);
            let hit = map.memo.get(&hash).and_then(|&key| {
                let design = map.designs.get(&key)?;
                match (&design.module, &design.source) {
                    (Some(module), Some((_, text))) if **text == *source => {
                        Some((Arc::clone(module), key))
                    }
                    _ => None,
                }
            });
            if let Some((module, key)) = hit {
                map.touch(key);
                return Ok((module, key));
            }
        }
        let module = parse_module(source)?;
        let key = Self::fingerprint(&module);
        let mut map = lock_recover(&self.entries);
        let design = map.touch(key);
        let module = Arc::clone(design.module.get_or_insert_with(|| Arc::new(module)));
        if let Some((old, _)) = design.source.replace((hash, source.into())) {
            if old != hash && map.memo.get(&old) == Some(&key) {
                map.memo.remove(&old);
            }
        }
        map.memo.insert(hash, key);
        self.evict_over_capacity(&mut map, Some(key));
        Ok((module, key))
    }

    /// The stored module under `key`, marking its design as the most
    /// recently used; `None` when the store holds no module under that
    /// key (never submitted, or evicted).
    pub fn module(&self, key: u128) -> Option<Arc<Module>> {
        let mut map = lock_recover(&self.entries);
        let module = Arc::clone(map.designs.get(&key)?.module.as_ref()?);
        map.touch(key);
        Some(module)
    }

    /// The `(design, top)` fill slot, creating it if needed, bumping the
    /// design's LRU stamp and the top's run count, and evicting
    /// over-capacity cold designs. The outer map lock is held only for
    /// this probe; the returned slot carries its own lock. A design
    /// evicted after its caller resolved it comes back here without its
    /// module, until its source is sent again.
    fn entry(&self, fingerprint: u128, top: &str) -> SharedCacheEntry {
        let mut map = lock_recover(&self.entries);
        let slot = map
            .touch(fingerprint)
            .tops
            .entry(top.to_string())
            .or_default();
        slot.runs += 1;
        let entry = Arc::clone(&slot.entry);
        self.evict_over_capacity(&mut map, Some(fingerprint));
        entry
    }

    /// Record a completed fill's size estimate at the map level (no fill
    /// lock needed for stats or eviction decisions afterwards). The design
    /// may have been evicted while the fill ran; that is fine — the caller
    /// still holds its own `Arc` and the estimate dies with the slot.
    fn note_fill(&self, fingerprint: u128, top: &str, approx_bytes: usize, compiled: bool) {
        let mut map = lock_recover(&self.entries);
        let slot = map
            .designs
            .get_mut(&fingerprint)
            .and_then(|design| design.tops.get_mut(top));
        if let Some(slot) = slot {
            slot.approx_bytes = slot.approx_bytes.max(approx_bytes);
            slot.compiled |= compiled;
        }
    }

    /// The elaborated design for `(module, top)` under the module's
    /// [`DesignCache::fingerprint`], elaborating on a miss.
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

    /// After a failed fill, drop the `(fingerprint, top)` slot if it
    /// holds nothing, so failed elaborations do not leak placeholder
    /// slots into a long-running server. A design left with no slot at
    /// all goes too, unless a caller other than the failing one holds its
    /// module: a fresh source whose only top fails to elaborate leaves
    /// nothing resident.
    fn discard_if_empty(&self, fingerprint: u128, top: &str) {
        let mut map = lock_recover(&self.entries);
        let Some(design) = map.designs.get_mut(&fingerprint) else {
            return;
        };
        let empty = design.tops.get(top).is_some_and(|slot| {
            slot.entry
                .try_lock()
                .map(|entry| entry.elaborated.is_none() && entry.compiled.is_none())
                .unwrap_or(false)
        });
        if empty {
            design.tops.remove(top);
        }
        // Two owners: the store and the failing caller.
        let unheld = design
            .module
            .as_ref()
            .is_none_or(|module| Arc::strong_count(module) <= 2);
        if design.tops.is_empty() && unheld {
            map.remove(fingerprint);
        }
    }

    /// The compiled design for `(module, top)` under the module's
    /// [`DesignCache::fingerprint`], elaborating and compiling on a miss.
    /// On a hit `compile_design` is **not** run — asserted by the
    /// [`DesignCache::compile_hits`] counter in the test suite.
    ///
    /// # Errors
    ///
    /// Propagates elaboration and compilation failures (not cached).
    pub fn compiled_keyed(
        &self,
        fingerprint: u128,
        module: &Module,
        top: &str,
    ) -> Result<(Arc<ElaboratedDesign>, Arc<CompiledDesign>), Error> {
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
        // Store the elaboration before compiling: if blaze rejects the
        // design, the (valid) elaboration stays cached for retries
        // and interpreter sessions.
        entry.elaborated = Some(Arc::clone(&design));
        self.compile_misses.fetch_add(1, Ordering::Relaxed);
        let compiled = match compile_design(module, Arc::clone(&design)) {
            Ok(compiled) => Arc::new(compiled),
            Err(e) => {
                drop(entry);
                self.note_fill(fingerprint, top, approx_elaborated_bytes(&design), false);
                return Err(e.into());
            }
        };
        entry.compiled = Some(Arc::clone(&compiled));
        drop(entry);
        let bytes = approx_elaborated_bytes(&design) + compiled.approx_bytes();
        self.note_fill(fingerprint, top, bytes, true);
        Ok((design, compiled))
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

    /// The number of stored designs.
    pub fn len(&self) -> usize {
        lock_recover(&self.entries).designs.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all stored designs (counters are kept; in-flight sessions keep
    /// their own `Arc`s and are unaffected, like eviction).
    pub fn clear(&self) {
        let mut map = lock_recover(&self.entries);
        map.designs.clear();
        map.memo.clear();
    }

    /// Snapshot the observability surface: counters, live designs, the
    /// bytes-ish retained-size estimate, and per-top run counts (sorted
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
    /// // The default engine compiles: one compilation, two reuses.
    /// assert_eq!((stats.compile_misses, stats.compile_hits), (1, 2));
    /// assert_eq!(stats.designs[0].runs, 3);
    /// assert!(stats.approx_bytes > 0);
    /// ```
    pub fn stats(&self) -> CacheStats {
        let map = lock_recover(&self.entries);
        let mut designs: Vec<DesignStats> = map
            .designs
            .iter()
            .flat_map(|(&fingerprint, design)| {
                design.tops.iter().map(move |(top, slot)| DesignStats {
                    fingerprint,
                    top: top.clone(),
                    runs: slot.runs,
                    approx_bytes: slot.approx_bytes,
                    compiled: slot.compiled,
                })
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
            entries: map.designs.len(),
            modules: map.designs.values().filter(|d| d.module.is_some()).count(),
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
/// use llhd_sim::api::{DesignCache, EngineKind, SimSession};
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
/// let result = SimSession::builder(&module, "blink")
///     .engine(EngineKind::Interpret)   // default: EngineKind::Auto
///     .until_nanos(50)                 // run limit
///     .trace_filter(&["led"])          // record only matching signals
///     .cache(&cache)                   // reuse elaboration across runs
///     .build()
///     .unwrap()
///     .run()
///     .unwrap();
/// assert_eq!(result.signal_changes, result.trace.len());
/// assert_eq!(cache.elaborate_misses(), 1);
/// ```
pub struct SessionBuilder<'m> {
    module: &'m Module,
    top: &'m str,
    kind: EngineKind,
    config: SimConfig,
    cache: Option<&'m DesignCache>,
    cache_key: Option<u128>,
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

    /// Resolve the engine kind, elaborate (through the cache when one is
    /// attached), and construct the engine.
    ///
    /// # Errors
    ///
    /// Fails on elaboration or compilation errors.
    pub fn build(self) -> Result<SimSession, Error> {
        let kind = match self.kind {
            EngineKind::Auto => EngineKind::Compile,
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
        let mut unit_stats = Vec::new();
        let (design, engine): (Arc<ElaboratedDesign>, Box<dyn Engine>) = if kind
            == EngineKind::Compile
        {
            let (design, compiled) = match (self.cache, key) {
                (Some(cache), Some(key)) => cache.compiled_keyed(key, self.module, self.top)?,
                _ => {
                    let design = Arc::new(elaborate(self.module, self.top)?);
                    let compiled = compile_design(self.module, Arc::clone(&design))?;
                    (design, Arc::new(compiled))
                }
            };
            unit_stats = compiled.unit_stats();
            let engine = Box::new(BlazeSimulator::new(compiled, self.config.clone()).into_driver());
            (design, engine)
        } else {
            let design = match (self.cache, key) {
                (Some(cache), Some(key)) => cache.elaborated_keyed(key, self.module, self.top)?,
                _ => Arc::new(elaborate(self.module, self.top)?),
            };
            let engine = Box::new(Simulator::new(
                self.module,
                Arc::clone(&design),
                self.config.clone(),
            ));
            (design, engine)
        };
        Ok(SimSession {
            engine,
            design,
            kind,
            failed: None,
            unit_stats,
        })
    }
}

/// One prepared simulation: an engine plus its elaborated design and run
/// limits, behind a single engine-agnostic surface.
///
/// Use [`SimSession::run`] for a complete run, or drive it incrementally
/// with [`SimSession::step`]/[`SimSession::peek`]/[`SimSession::poke`] and
/// collect the result with [`SimSession::finish`]. Stepping is
/// deterministic: any chunking reproduces the uninterrupted trace byte
/// for byte.
///
/// A built session borrows nothing: the interpreter keeps its own copy of
/// the module, the compiled engine its artifact. It is `Send`, so it can
/// outlive the module it was built from, sit in a table and be driven
/// from whichever thread holds it next, one command at a time.
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
pub struct SimSession {
    engine: Box<dyn Engine>,
    design: Arc<ElaboratedDesign>,
    kind: EngineKind,
    /// The first `initialize`/`step` failure; `finish` replays it rather
    /// than assembling a half-applied result.
    failed: Option<Error>,
    /// Per-unit compilation statistics of the compiled design (empty for
    /// interpreted sessions).
    unit_stats: Vec<UnitArtifactStats>,
}

impl SimSession {
    /// Start configuring a session for `top` in `module`.
    pub fn builder<'m>(module: &'m Module, top: &'m str) -> SessionBuilder<'m> {
        SessionBuilder {
            module,
            top,
            kind: EngineKind::Auto,
            config: SimConfig::default(),
            cache: None,
            cache_key: None,
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
    /// specialized instance counts) of the compiled design. Empty for
    /// interpreted sessions.
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

    /// Advance by one scheduler cycle. Returns `false` once the run is
    /// exhausted (queue empty or end time reached).
    ///
    /// # Errors
    ///
    /// Propagates engine runtime errors.
    pub fn step(&mut self) -> Result<bool, Error> {
        match self.engine.step() {
            Ok(more) => Ok(more),
            Err(SimError::DeadlineExceeded) => {
                // A deadline abort happens between cycles, with the
                // engine state fully consistent: the session stays
                // usable and can resume under a fresh budget, so it is
                // deliberately NOT recorded as a permanent failure.
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
    /// having checkpointed.
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

    /// Assemble the final [`SimResult`].
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
        Ok(self.engine.finish())
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
    /// // Four runs of one design, different end times, one compilation.
    /// let jobs: Vec<BatchJob> = (1..=4)
    ///     .map(|i| BatchJob::new(&module, "pulse", SimConfig::until_nanos(10 * i)))
    ///     .collect();
    /// let cache = DesignCache::new();
    /// let results = SimSession::run_batch(&jobs, Some(&cache));
    /// assert!(results.iter().all(|r| r.is_ok()));
    /// assert_eq!(cache.compile_misses(), 1);
    /// assert_eq!(cache.compile_hits(), 3);
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
        // skip even that one encode — the steady state of the server,
        // which knows every resident design's key already.
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
                // A panic mid-build may have poisoned the job's fill
                // slot; drop poisoned artifacts so the next request for
                // the same design recompiles instead of wedging on the
                // poison forever.
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

    /// `Auto` compiles in every process: nothing here installs or names
    /// the compiled engine before the default session and batch run.
    #[test]
    fn auto_runs_on_blaze_by_default() {
        let module = parse_module(BLINK).unwrap();
        let session = SimSession::builder(&module, "blink").build().unwrap();
        assert_eq!(session.engine_kind(), EngineKind::Compile);
        assert_eq!(session.engine_name(), "blaze");
        assert!(!session.unit_stats().is_empty());
        let cache = DesignCache::new();
        let jobs = [BatchJob::new(&module, "blink", SimConfig::until_nanos(20))];
        let results = SimSession::run_batch(&jobs, Some(&cache));
        assert!(results[0].is_ok());
        assert_eq!(cache.compile_misses(), 1, "the batch job compiled");
        assert!(cache.stats().designs[0].compiled);
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
    fn unknown_top_surfaces_as_elaborate_error() {
        let module = parse_module(BLINK).unwrap();
        let err = SimSession::builder(&module, "missing")
            .engine(EngineKind::Interpret)
            .build()
            .err()
            .unwrap();
        assert!(matches!(
            err,
            Error::Elaborate(ElaborateError::UnknownTop(_))
        ));
        assert!(err.to_string().contains("missing"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn untraced_run_reports_the_same_signal_changes() {
        let module = parse_module(BLINK).unwrap();
        let run = |config: SimConfig| {
            SimSession::builder(&module, "blink")
                .engine(EngineKind::Interpret)
                .config(config)
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let traced = run(SimConfig::until_nanos(50));
        let untraced = run(SimConfig::until_nanos(50).without_trace());
        assert!(traced.signal_changes >= 9);
        assert_eq!(traced.signal_changes, traced.trace.len());
        // The statistics reflect the full run; only the trace is empty.
        assert!(untraced.trace.is_empty());
        assert_eq!(untraced.signal_changes, traced.signal_changes);
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
            .engine(EngineKind::Interpret)
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
        SimSession::builder(&hot, "blink")
            .engine(EngineKind::Interpret)
            .cache(&cache)
            .build()
            .unwrap();
        assert_eq!(cache.elaborate_hits(), 1);
        let cold = blink_with_delay(1);
        SimSession::builder(&cold, "blink")
            .engine(EngineKind::Interpret)
            .cache(&cache)
            .build()
            .unwrap();
        assert_eq!(cache.elaborate_misses(), 11, "evicted design must miss");
        // Recency, not insertion order, decides the victim: keep touching
        // one design while inserting others and it must survive.
        let pinned = blink_with_delay(100);
        SimSession::builder(&pinned, "blink")
            .engine(EngineKind::Interpret)
            .cache(&cache)
            .build()
            .unwrap();
        for i in 20..=25 {
            let module = blink_with_delay(i);
            SimSession::builder(&module, "blink")
                .engine(EngineKind::Interpret)
                .cache(&cache)
                .build()
                .unwrap();
            SimSession::builder(&pinned, "blink")
                .engine(EngineKind::Interpret)
                .cache(&cache)
                .build()
                .unwrap();
        }
        let hits_before = cache.elaborate_hits();
        SimSession::builder(&pinned, "blink")
            .engine(EngineKind::Interpret)
            .cache(&cache)
            .build()
            .unwrap();
        assert_eq!(
            cache.elaborate_hits(),
            hits_before + 1,
            "pinned design was evicted"
        );
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
        SimSession::builder(&other, "blink")
            .engine(EngineKind::Interpret)
            .cache(&cache)
            .build()
            .unwrap();
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
            SimSession::builder(&a, "blink")
                .engine(EngineKind::Interpret)
                .cache(&cache)
                .build()
                .unwrap();
        }
        SimSession::builder(&b, "blink")
            .engine(EngineKind::Interpret)
            .cache(&cache)
            .build()
            .unwrap();
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
        SimSession::builder(&a, "blink")
            .engine(EngineKind::Interpret)
            .cache(&cache)
            .build()
            .unwrap();
        cache.set_capacity(Some(1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
        let survivor = cache.stats();
        assert_eq!(survivor.designs[0].runs, 4, "LRU kept the hot design");
    }

    /// Build (and drop) a `blink` session over a stored module, so the
    /// design holds an artifact.
    fn build_stored(cache: &DesignCache, module: &Module, key: u128) {
        SimSession::builder(module, "blink")
            .engine(EngineKind::Interpret)
            .cache(cache)
            .cache_key(key)
            .build()
            .unwrap();
    }

    #[test]
    fn a_resent_text_is_served_from_the_store() {
        let cache = DesignCache::new();
        let (first, key) = cache.module_for_source(BLINK).unwrap();
        assert_eq!(key, DesignCache::fingerprint(&parse_module(BLINK).unwrap()));
        let (second, again) = cache.module_for_source(BLINK).unwrap();
        assert_eq!(again, key);
        assert!(Arc::ptr_eq(&first, &second), "a memo hit must not parse");
        assert!(Arc::ptr_eq(&cache.module(key).unwrap(), &first));
        assert!(cache.module(key ^ 1).is_none());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.modules), (1, 1));
    }

    #[test]
    fn a_text_one_byte_off_is_not_a_memo_hit() {
        let cache = DesignCache::new();
        let (stored, key) = cache.module_for_source(BLINK).unwrap();
        // One byte off and invalid: it is parsed, not served.
        assert!(cache
            .module_for_source(&BLINK.replacen("entry:", "entry;", 1))
            .is_err());
        // One byte off and a different module: a different design.
        let (other, other_key) = cache
            .module_for_source(&BLINK.replacen("5ns", "6ns", 1))
            .unwrap();
        assert_ne!(other_key, key);
        assert!(!Arc::ptr_eq(&other, &stored));
        // One byte off and the same module: the same design and module,
        // and the memo now holds the newer text.
        let spaced = BLINK.replacen("entry:", "entry: ", 1);
        let (same, same_key) = cache.module_for_source(&spaced).unwrap();
        assert_eq!(same_key, key);
        assert!(Arc::ptr_eq(&same, &stored));
        assert_eq!(cache.len(), 2);
        // A text whose memo hash points at another design's key is
        // confirmed against the stored text, so it is never served that
        // design's module.
        let other_text = BLINK.replacen("5ns", "6ns", 1);
        lock_recover(&cache.entries)
            .memo
            .insert(source_hash(&other_text), key);
        let (confirmed, confirmed_key) = cache.module_for_source(&other_text).unwrap();
        assert_eq!(confirmed_key, other_key);
        assert!(Arc::ptr_eq(&confirmed, &other));
    }

    #[test]
    fn an_evicted_design_is_parsed_again() {
        let cache = DesignCache::with_capacity(1);
        let (first, key) = cache.module_for_source(BLINK).unwrap();
        build_stored(&cache, &first, key);
        let other = BLINK.replacen("5ns", "6ns", 1);
        let (module, other_key) = cache.module_for_source(&other).unwrap();
        build_stored(&cache, &module, other_key);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.module(key).is_none(), "evicted with its design");
        assert_eq!(lock_recover(&cache.entries).memo.len(), 1);
        let (again, again_key) = cache.module_for_source(BLINK).unwrap();
        assert_eq!(again_key, key);
        assert!(!Arc::ptr_eq(&again, &first), "a resubmission parses again");
    }

    #[test]
    fn a_fresh_source_that_fails_to_elaborate_leaves_nothing() {
        let cache = DesignCache::new();
        let (module, key) = cache.module_for_source(BLINK).unwrap();
        assert!(SimSession::builder(&module, "missing_top")
            .engine(EngineKind::Interpret)
            .cache(&cache)
            .cache_key(key)
            .build()
            .is_err());
        assert!(cache.is_empty());
        assert!(cache.module(key).is_none());
        assert!(lock_recover(&cache.entries).memo.is_empty());
        // A design that holds an artifact survives a failing top.
        let (module, key) = cache.module_for_source(BLINK).unwrap();
        build_stored(&cache, &module, key);
        assert!(SimSession::builder(&module, "missing_top")
            .engine(EngineKind::Interpret)
            .cache(&cache)
            .cache_key(key)
            .build()
            .is_err());
        assert!(cache.module(key).is_some());
        assert_eq!(cache.stats().designs.len(), 1);
    }

    #[test]
    fn a_poisoned_fill_drops_only_its_artifacts() {
        let cache = DesignCache::new();
        let (module, key) = cache.module_for_source(BLINK).unwrap();
        build_stored(&cache, &module, key);
        let slot = cache.entry(key, "blink");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _fill = slot.lock().unwrap();
            panic!("injected fill panic");
        }));
        assert!(unwound.is_err());
        drop(slot);
        cache.sweep_poisoned();
        assert!(cache.stats().designs.is_empty(), "the artifacts go");
        assert!(Arc::ptr_eq(&cache.module(key).unwrap(), &module));
        let (resent, _) = cache.module_for_source(BLINK).unwrap();
        assert!(Arc::ptr_eq(&resent, &module), "the memo stays");
        build_stored(&cache, &module, key);
        assert_eq!(cache.elaborate_misses(), 2, "the fill runs again");
    }

    #[test]
    fn batch_runner_matches_individual_runs() {
        let module = parse_module(BLINK).unwrap();
        let jobs: Vec<BatchJob> = (1..=4)
            .map(|i| BatchJob {
                module: &module,
                top: "blink",
                engine: EngineKind::Interpret,
                config: SimConfig::until_nanos(10 * i),
                cache_key: None,
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
        let jobs = [BatchJob {
            engine: EngineKind::Interpret,
            ..BatchJob::new(&module, "blink", config)
        }];
        let results = SimSession::run_batch(&jobs, None);
        assert_eq!(
            *ran_on.lock().unwrap(),
            Some(caller),
            "one job spawns no thread"
        );
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
