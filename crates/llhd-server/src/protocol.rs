//! The wire protocol: request parsing and response construction.
//!
//! One request per line, one response per line, compact JSON — the full
//! specification (schemas, error shapes, the versioning rule) lives in
//! `docs/PROTOCOL.md` at the repository root; this module is its
//! implementation. Protocol version: [`PROTOCOL_VERSION`].

use crate::json::Json;
use llhd_sim::api::{self, CacheStats, EngineKind};
use llhd_sim::{SimConfig, SimResult};

/// The protocol version this server speaks. Responses always carry it as
/// `"v"`; requests may carry `"v"` and are rejected when it does not
/// match. The versioning rule: *adding* optional request fields or
/// response fields is not a version bump (receivers ignore unknown
/// fields); any change that alters the meaning of an existing field, or
/// removes one, bumps this number.
pub const PROTOCOL_VERSION: i128 = 1;

/// How a simulation request wants its trace delivered.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TraceMode {
    /// No trace: only the run statistics come back (the default).
    #[default]
    Off,
    /// The full value-change trace, rendered as a VCD document in the
    /// response's `trace_vcd` field.
    Vcd,
}

/// One simulation job: a design reference plus engine/run/trace
/// configuration. Appears standalone (`sim`) or repeated (`batch`).
#[derive(Clone, Debug)]
pub struct SimJobSpec {
    /// Inline LLHD assembly source, if the design is being submitted.
    pub source: Option<String>,
    /// A design key from an earlier response, if the design should be
    /// resident already.
    pub design: Option<String>,
    /// The top-level unit to elaborate.
    pub top: String,
    /// Engine selection.
    pub engine: EngineKind,
    /// Simulation end time in nanoseconds (`None`: the engine default).
    pub until_ns: Option<u128>,
    /// Trace delivery.
    pub trace: TraceMode,
    /// Restrict the trace to signals whose hierarchical name ends with
    /// one of these suffixes.
    pub trace_signals: Option<Vec<String>>,
    /// Override the delta-cycle guard.
    pub max_deltas_per_instant: Option<u32>,
    /// Override the per-activation step guard.
    pub max_steps_per_activation: Option<usize>,
    /// Wall-clock budget for the job in milliseconds, measured from the
    /// moment the server received the request. The run is cut off with a
    /// `deadline_exceeded` error once the budget is used up.
    pub deadline_ms: Option<u64>,
}

impl SimJobSpec {
    /// The [`SimConfig`] this spec describes.
    pub fn sim_config(&self) -> SimConfig {
        let mut config = match self.until_ns {
            Some(ns) => SimConfig::until_nanos(ns),
            None => SimConfig::default(),
        };
        // The parser guarantees `trace_signals` only appears with `Vcd`,
        // so recording happens exactly when the response delivers it.
        config.trace = self.trace == TraceMode::Vcd;
        if let Some(filter) = &self.trace_signals {
            config.trace_filter = Some(filter.clone());
        }
        if let Some(n) = self.max_deltas_per_instant {
            config.max_deltas_per_instant = n;
        }
        if let Some(n) = self.max_steps_per_activation {
            config.max_steps_per_activation = n;
        }
        config
    }
}

/// A structural query against a session's elaborated design (the
/// `session.query` request's `"query"` field).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QueryKind {
    /// The flattened instance hierarchy.
    Hierarchy,
    /// Which instances drive the named signal.
    Drivers(String),
    /// Which instances observe the named signal.
    Watchers(String),
    /// Per-unit compilation statistics (compiled sessions only).
    UnitStats,
}

/// A parsed request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// One simulation job.
    Sim(SimJobSpec),
    /// Several jobs, executed concurrently, answered in order.
    Batch(Vec<SimJobSpec>),
    /// Cache/server observability counters.
    Stats,
    /// Graceful shutdown: drain in-flight work, then exit.
    Shutdown,
    /// Open a stateful interactive session over a design.
    SessionCreate(SimJobSpec),
    /// Advance a session by up to `steps` scheduler cycles.
    SessionStep {
        /// The session id from `session.create`/`session.restore`.
        session: String,
        /// How many cycles to advance (at least 1).
        steps: usize,
        /// Wall-clock budget for this command in milliseconds; the step
        /// loop is cut off with `deadline_exceeded` (reporting the steps
        /// taken so far) once it is used up. The session survives.
        deadline_ms: Option<u64>,
    },
    /// Read a signal's current value.
    SessionPeek {
        /// The session id.
        session: String,
        /// The hierarchical signal name.
        signal: String,
    },
    /// Drive a signal from outside the design.
    SessionPoke {
        /// The session id.
        session: String,
        /// The hierarchical signal name.
        signal: String,
        /// The value (an integer; the signal's width applies).
        value: u128,
    },
    /// Run a structural query against the session's design.
    SessionQuery {
        /// The session id.
        session: String,
        /// What to ask.
        query: QueryKind,
    },
    /// Serialize the session's full engine state.
    SessionCheckpoint {
        /// The session id.
        session: String,
    },
    /// Open a *new* session and resume it from a checkpoint.
    SessionRestore {
        /// The design/engine configuration (same fields as
        /// `session.create`; must match the checkpointed run).
        spec: SimJobSpec,
        /// The hex-encoded checkpoint from `session.checkpoint`.
        state_hex: String,
    },
    /// End a session, returning its final run statistics (and trace).
    SessionDestroy {
        /// The session id.
        session: String,
    },
}

/// The error kinds of the protocol (the `error.kind` field).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorKind {
    /// The line was not valid JSON.
    Parse,
    /// The JSON did not form a valid request.
    Protocol,
    /// The inline LLHD assembly did not parse.
    Source,
    /// Elaboration of the design failed.
    Elaborate,
    /// Ahead-of-time compilation failed.
    Compile,
    /// The simulation hit a runtime error.
    Runtime,
    /// A `peek`/`poke`-style signal reference did not resolve.
    UnknownSignal,
    /// The referenced design key is not resident (evicted or never seen).
    UnknownDesign,
    /// The referenced session id does not exist (expired, destroyed, or
    /// never created).
    UnknownSession,
    /// The server's interactive-session cap is reached.
    SessionLimit,
    /// The server is shutting down and takes no new work.
    Shutdown,
    /// The request's wall-clock budget (`deadline_ms`) was used up
    /// before the run finished; the error carries the partial progress.
    DeadlineExceeded,
    /// The server already has its cap of jobs in flight and the request
    /// was shed; retry after the hinted backoff.
    Overloaded,
    /// The server-side handler panicked. The job is lost but the server
    /// keeps serving; the message carries the panic payload.
    Internal,
}

impl ErrorKind {
    /// The wire name of this kind.
    pub fn wire_name(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Protocol => "protocol",
            ErrorKind::Source => "source",
            ErrorKind::Elaborate => "elaborate",
            ErrorKind::Compile => "compile",
            ErrorKind::Runtime => "runtime",
            ErrorKind::UnknownSignal => "unknown_signal",
            ErrorKind::UnknownDesign => "unknown_design",
            ErrorKind::UnknownSession => "unknown_session",
            ErrorKind::SessionLimit => "session_limit",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Internal => "internal_error",
        }
    }

    /// The kind a wire name denotes; the inverse of
    /// [`wire_name`](ErrorKind::wire_name).
    pub fn from_wire_name(name: &str) -> Option<ErrorKind> {
        Some(match name {
            "parse" => ErrorKind::Parse,
            "protocol" => ErrorKind::Protocol,
            "source" => ErrorKind::Source,
            "elaborate" => ErrorKind::Elaborate,
            "compile" => ErrorKind::Compile,
            "runtime" => ErrorKind::Runtime,
            "unknown_signal" => ErrorKind::UnknownSignal,
            "unknown_design" => ErrorKind::UnknownDesign,
            "unknown_session" => ErrorKind::UnknownSession,
            "session_limit" => ErrorKind::SessionLimit,
            "shutdown" => ErrorKind::Shutdown,
            "deadline_exceeded" => ErrorKind::DeadlineExceeded,
            "overloaded" => ErrorKind::Overloaded,
            "internal_error" => ErrorKind::Internal,
            _ => return None,
        })
    }

    /// Whether a client may retry the identical request and reasonably
    /// expect it to succeed. `Overloaded` (transient queue pressure) and
    /// `Shutdown` (another replica of a fleet can take the request) are
    /// the retryable kinds; everything else is deterministic — the same
    /// request fails the same way — or, for `deadline_exceeded`, only
    /// succeeds with a *larger* budget, which a blind retry does not
    /// grant. Rendered as the additive `retryable` field on every error
    /// response.
    pub fn retryable(self) -> bool {
        matches!(self, ErrorKind::Overloaded | ErrorKind::Shutdown)
    }
}

/// A protocol-level failure: what becomes an `"ok":false` response.
#[derive(Clone, Debug)]
pub struct ProtoError {
    /// Which kind of failure.
    pub kind: ErrorKind,
    /// Human-readable description.
    pub message: String,
    /// Extra machine-readable fields merged into the wire `error`
    /// object (additive): `retry_after_ms` on `overloaded`, partial
    /// progress (`end_time_fs`, `steps_taken`) on `deadline_exceeded`.
    pub data: Vec<(String, Json)>,
}

impl ProtoError {
    /// Build an error.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ProtoError {
            kind,
            message: message.into(),
            data: Vec::new(),
        }
    }

    /// Attach an extra machine-readable field to the wire error object.
    pub fn with_data(mut self, key: impl Into<String>, value: Json) -> Self {
        self.data.push((key.into(), value));
        self
    }
}

impl From<api::Error> for ProtoError {
    fn from(e: api::Error) -> Self {
        let kind = match &e {
            api::Error::Elaborate(_) => ErrorKind::Elaborate,
            api::Error::Compile(_) => ErrorKind::Compile,
            api::Error::Runtime(_) => ErrorKind::Runtime,
            api::Error::UnknownSignal(_) => ErrorKind::UnknownSignal,
            api::Error::DeadlineExceeded { .. } => ErrorKind::DeadlineExceeded,
            api::Error::Panic(_) => ErrorKind::Internal,
        };
        let error = ProtoError::new(kind, e.to_string());
        match e {
            // Partial progress rides along so a caller knows how far the
            // cut-off run got.
            api::Error::DeadlineExceeded { time_fs } => {
                error.with_data("end_time_fs", Json::uint(time_fs))
            }
            _ => error,
        }
    }
}

fn parse_engine(value: &Json) -> Result<EngineKind, ProtoError> {
    match value.as_str() {
        Some("auto") => Ok(EngineKind::Auto),
        Some("interpret") => Ok(EngineKind::Interpret),
        Some("compile") => Ok(EngineKind::Compile),
        _ => Err(ProtoError::new(
            ErrorKind::Protocol,
            format!(
                "invalid \"engine\" {} (expected \"auto\", \"interpret\", or \"compile\")",
                value
            ),
        )),
    }
}

fn parse_trace(value: &Json) -> Result<TraceMode, ProtoError> {
    match value.as_str() {
        Some("off") => Ok(TraceMode::Off),
        Some("vcd") => Ok(TraceMode::Vcd),
        _ => Err(ProtoError::new(
            ErrorKind::Protocol,
            format!("invalid \"trace\" {} (expected \"off\" or \"vcd\")", value),
        )),
    }
}

fn field_uint(obj: &Json, key: &str, max: u128) -> Result<Option<u128>, ProtoError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Int(i)) if *i >= 0 && *i as u128 <= max => Ok(Some(*i as u128)),
        Some(Json::Int(i)) if *i >= 0 => Err(ProtoError::new(
            ErrorKind::Protocol,
            format!("\"{}\" must be at most {}, got {}", key, max, i),
        )),
        Some(other) => Err(ProtoError::new(
            ErrorKind::Protocol,
            format!("\"{}\" must be a non-negative integer, got {}", key, other),
        )),
    }
}

/// The largest accepted `until_ns`: ~584 years of simulated time. Femto-
/// second conversion (×10⁶) stays far below `u128::MAX`, so the engine's
/// time arithmetic cannot overflow on wire-supplied values.
const MAX_UNTIL_NS: u128 = u64::MAX as u128;

/// The largest accepted `deadline_ms`: ~49 days of wall-clock time, far
/// beyond any sane request budget but small enough that deadline
/// arithmetic on `Instant` cannot overflow.
const MAX_DEADLINE_MS: u128 = u32::MAX as u128;

fn field_str(obj: &Json, key: &str) -> Result<Option<String>, ProtoError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(ProtoError::new(
            ErrorKind::Protocol,
            format!("\"{}\" must be a string, got {}", key, other),
        )),
    }
}

fn parse_job(obj: &Json) -> Result<SimJobSpec, ProtoError> {
    let source = field_str(obj, "source")?;
    let design = field_str(obj, "design")?;
    if source.is_none() && design.is_none() {
        return Err(ProtoError::new(
            ErrorKind::Protocol,
            "a sim job needs either \"source\" (inline LLHD assembly) or \"design\" (a cached key)",
        ));
    }
    let top = field_str(obj, "top")?.ok_or_else(|| {
        ProtoError::new(
            ErrorKind::Protocol,
            "a sim job needs \"top\" (the unit to elaborate)",
        )
    })?;
    let engine = match obj.get("engine") {
        None | Some(Json::Null) => EngineKind::Auto,
        Some(value) => parse_engine(value)?,
    };
    let explicit_trace = match obj.get("trace") {
        None | Some(Json::Null) => None,
        Some(value) => Some(parse_trace(value)?),
    };
    let trace_signals = match obj.get("trace_signals") {
        None | Some(Json::Null) => None,
        Some(Json::Arr(items)) => {
            let mut names = Vec::with_capacity(items.len());
            for item in items {
                names.push(
                    item.as_str()
                        .ok_or_else(|| {
                            ProtoError::new(
                                ErrorKind::Protocol,
                                "\"trace_signals\" must be an array of strings",
                            )
                        })?
                        .to_string(),
                );
            }
            Some(names)
        }
        Some(_) => {
            return Err(ProtoError::new(
                ErrorKind::Protocol,
                "\"trace_signals\" must be an array of strings",
            ))
        }
    };
    // Asking for specific signals is asking for the trace: the filter
    // implies VCD delivery. Recording a trace the response would then
    // discard (explicit "off" + a filter) is a contradiction, not a
    // default to guess at.
    let trace = match (explicit_trace, &trace_signals) {
        (Some(TraceMode::Off), Some(_)) => {
            return Err(ProtoError::new(
                ErrorKind::Protocol,
                "\"trace_signals\" requires \"trace\":\"vcd\" (or omit \"trace\")",
            ))
        }
        (None, Some(_)) => TraceMode::Vcd,
        (mode, _) => mode.unwrap_or(TraceMode::Off),
    };
    Ok(SimJobSpec {
        source,
        design,
        top,
        engine,
        until_ns: field_uint(obj, "until_ns", MAX_UNTIL_NS)?,
        trace,
        trace_signals,
        // The bounds make the narrowing casts lossless.
        max_deltas_per_instant: field_uint(obj, "max_deltas_per_instant", u32::MAX as u128)?
            .map(|n| n as u32),
        max_steps_per_activation: field_uint(obj, "max_steps_per_activation", usize::MAX as u128)?
            .map(|n| n as usize),
        deadline_ms: field_deadline(obj)?,
    })
}

/// The optional `"deadline_ms"` field (sim jobs and `session.step`).
/// A zero budget is legal: it means "fail fast with partial progress".
fn field_deadline(obj: &Json) -> Result<Option<u64>, ProtoError> {
    Ok(field_uint(obj, "deadline_ms", MAX_DEADLINE_MS)?.map(|n| n as u64))
}

/// The required `"session"` field of the session request family.
fn field_session(obj: &Json) -> Result<String, ProtoError> {
    field_str(obj, "session")?.ok_or_else(|| {
        ProtoError::new(
            ErrorKind::Protocol,
            "a session request needs \"session\" (the id from session.create)",
        )
    })
}

/// The required `"signal"` field of `session.peek`/`session.poke`.
fn field_signal(obj: &Json) -> Result<String, ProtoError> {
    field_str(obj, "signal")?.ok_or_else(|| {
        ProtoError::new(
            ErrorKind::Protocol,
            "this request needs \"signal\" (a hierarchical signal name)",
        )
    })
}

fn parse_query(obj: &Json) -> Result<QueryKind, ProtoError> {
    match obj.get("query").and_then(Json::as_str) {
        Some("hierarchy") => Ok(QueryKind::Hierarchy),
        Some("drivers") => Ok(QueryKind::Drivers(field_signal(obj)?)),
        Some("watchers") => Ok(QueryKind::Watchers(field_signal(obj)?)),
        Some("unit_stats") => Ok(QueryKind::UnitStats),
        Some(other) => Err(ProtoError::new(
            ErrorKind::Protocol,
            format!(
                "unknown \"query\" {:?} (expected hierarchy, drivers, watchers, or unit_stats)",
                other
            ),
        )),
        None => Err(ProtoError::new(
            ErrorKind::Protocol,
            "a session.query request needs a string \"query\" field",
        )),
    }
}

impl Request {
    /// Parse a request object (already JSON-parsed).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Protocol`] describing what is malformed; unknown
    /// *fields* are ignored (the forward-compatibility rule), unknown
    /// *types* and version mismatches are errors.
    pub fn parse(value: &Json) -> Result<Request, ProtoError> {
        if !matches!(value, Json::Obj(_)) {
            return Err(ProtoError::new(
                ErrorKind::Protocol,
                "a request must be a JSON object",
            ));
        }
        match value.get("v") {
            None | Some(Json::Int(PROTOCOL_VERSION)) => {}
            Some(other) => {
                return Err(ProtoError::new(
                    ErrorKind::Protocol,
                    format!(
                        "protocol version {} not supported (this server speaks v{})",
                        other, PROTOCOL_VERSION
                    ),
                ))
            }
        }
        let kind = value.get("type").and_then(Json::as_str).ok_or_else(|| {
            ProtoError::new(
                ErrorKind::Protocol,
                "a request needs a string \"type\" field",
            )
        })?;
        match kind {
            "ping" => Ok(Request::Ping),
            "sim" => Ok(Request::Sim(parse_job(value)?)),
            "batch" => {
                let jobs = value
                    .get("jobs")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| {
                        ProtoError::new(
                            ErrorKind::Protocol,
                            "a batch request needs a \"jobs\" array",
                        )
                    })?;
                if jobs.is_empty() {
                    return Err(ProtoError::new(
                        ErrorKind::Protocol,
                        "a batch request needs at least one job",
                    ));
                }
                jobs.iter().map(parse_job).collect::<Result<Vec<_>, _>>().map(Request::Batch)
            }
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "session.create" => Ok(Request::SessionCreate(parse_job(value)?)),
            "session.step" => Ok(Request::SessionStep {
                session: field_session(value)?,
                steps: match field_uint(value, "steps", usize::MAX as u128)? {
                    None => 1,
                    Some(0) => {
                        return Err(ProtoError::new(
                            ErrorKind::Protocol,
                            "\"steps\" must be at least 1",
                        ))
                    }
                    Some(n) => n as usize,
                },
                deadline_ms: field_deadline(value)?,
            }),
            "session.peek" => Ok(Request::SessionPeek {
                session: field_session(value)?,
                signal: field_signal(value)?,
            }),
            "session.poke" => Ok(Request::SessionPoke {
                session: field_session(value)?,
                signal: field_signal(value)?,
                value: field_uint(value, "value", u128::MAX)?.ok_or_else(|| {
                    ProtoError::new(
                        ErrorKind::Protocol,
                        "a session.poke request needs \"value\" (a non-negative integer)",
                    )
                })?,
            }),
            "session.query" => Ok(Request::SessionQuery {
                session: field_session(value)?,
                query: parse_query(value)?,
            }),
            "session.checkpoint" => Ok(Request::SessionCheckpoint {
                session: field_session(value)?,
            }),
            "session.restore" => Ok(Request::SessionRestore {
                spec: parse_job(value)?,
                state_hex: field_str(value, "state")?.ok_or_else(|| {
                    ProtoError::new(
                        ErrorKind::Protocol,
                        "a session.restore request needs \"state\" (the hex checkpoint from session.checkpoint)",
                    )
                })?,
            }),
            "session.destroy" => Ok(Request::SessionDestroy {
                session: field_session(value)?,
            }),
            other => Err(ProtoError::new(
                ErrorKind::Protocol,
                format!(
                    "unknown request type {:?} (expected ping, sim, batch, stats, shutdown, or the session.* family)",
                    other
                ),
            )),
        }
    }
}

/// Hex-encode checkpoint bytes for the wire (`session.checkpoint`'s
/// `state` field). Hex keeps the protocol dependency-free and the line
/// JSON-safe; checkpoints are small (dense signal state, not the design).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        out.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    out
}

/// Decode a `session.restore` request's hex `state` field.
///
/// # Errors
///
/// [`ErrorKind::Protocol`] on odd length or non-hex characters.
pub fn hex_decode(text: &str) -> Result<Vec<u8>, ProtoError> {
    if !text.len().is_multiple_of(2) {
        return Err(ProtoError::new(
            ErrorKind::Protocol,
            "\"state\" must be an even-length hex string",
        ));
    }
    let digits: Result<Vec<u8>, ProtoError> = text
        .chars()
        .map(|c| {
            c.to_digit(16).map(|d| d as u8).ok_or_else(|| {
                ProtoError::new(
                    ErrorKind::Protocol,
                    format!("\"state\" contains a non-hex character {:?}", c),
                )
            })
        })
        .collect();
    Ok(digits?
        .chunks(2)
        .map(|pair| (pair[0] << 4) | pair[1])
        .collect())
}

/// The client-supplied request id, echoed verbatim into the response (any
/// JSON value; absent stays absent).
pub fn request_id(value: &Json) -> Option<Json> {
    value.get("id").cloned()
}

fn envelope(id: Option<Json>, ok: bool) -> Vec<(String, Json)> {
    let mut fields = vec![
        ("v".to_string(), Json::Int(PROTOCOL_VERSION)),
        ("ok".to_string(), Json::Bool(ok)),
    ];
    if let Some(id) = id {
        fields.push(("id".to_string(), id));
    }
    fields
}

/// A successful response carrying `result`.
pub fn ok_response(id: Option<Json>, result: Json) -> Json {
    let mut fields = envelope(id, true);
    fields.push(("result".to_string(), result));
    Json::Obj(fields)
}

/// The `error` object: the error's kind, message, retryability, and any
/// extra machine-readable fields ([`ProtoError::data`]).
fn error_body(error: &ProtoError) -> Json {
    let mut body = vec![
        ("kind".to_string(), Json::str(error.kind.wire_name())),
        ("message".to_string(), Json::str(error.message.clone())),
        ("retryable".to_string(), Json::Bool(error.kind.retryable())),
    ];
    body.extend(error.data.iter().cloned());
    Json::Obj(body)
}

/// A failure response carrying the error's `error` object.
pub fn error_response(id: Option<Json>, error: &ProtoError) -> Json {
    let mut fields = envelope(id, false);
    fields.push(("error".to_string(), error_body(error)));
    Json::Obj(fields)
}

/// One job's entry in a `batch` response's `results`: the job's result
/// payload, or its `error` object.
pub fn batch_entry(outcome: Result<Json, ProtoError>) -> Json {
    match outcome {
        Ok(result) => Json::obj([("ok", Json::Bool(true)), ("result", result)]),
        Err(error) => Json::obj([("ok", Json::Bool(false)), ("error", error_body(&error))]),
    }
}

/// The engine names of the wire (`EngineKind` without `Auto`, which a
/// session always resolves away).
fn engine_wire_name(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Interpret => "interpret",
        EngineKind::Compile => "compile",
        EngineKind::Auto => "auto",
    }
}

/// Render one completed simulation into its response `result` payload.
pub fn sim_result_json(
    design_key: &str,
    top: &str,
    engine: EngineKind,
    spec_trace: TraceMode,
    result: &SimResult,
) -> Json {
    let mut fields = vec![
        ("design".to_string(), Json::str(design_key)),
        ("top".to_string(), Json::str(top)),
        ("engine".to_string(), Json::str(engine_wire_name(engine))),
        (
            "end_time_fs".to_string(),
            Json::uint(result.end_time.as_femtos()),
        ),
        (
            "signal_changes".to_string(),
            Json::uint(result.signal_changes as u128),
        ),
        (
            "activations".to_string(),
            Json::uint(result.activations as u128),
        ),
        (
            "halted_processes".to_string(),
            Json::uint(result.halted_processes as u128),
        ),
        (
            "assertions_checked".to_string(),
            Json::uint(result.assertions_checked as u128),
        ),
        (
            "assertion_failures".to_string(),
            Json::uint(result.assertion_failures as u128),
        ),
    ];
    if spec_trace == TraceMode::Vcd {
        fields.push((
            "trace_vcd".to_string(),
            Json::str(result.trace.to_vcd("1fs")),
        ));
    }
    Json::Obj(fields)
}

/// Server-load counters for the `stats` response: the observability
/// surface of the admission-control and panic-isolation layers.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerLoad {
    /// The cap on jobs in flight (`None` = unbounded, nothing sheds).
    pub queue_cap: Option<usize>,
    /// Jobs admitted and not yet answered.
    pub inflight: usize,
    /// Requests shed with `overloaded` since the server started.
    pub shed: usize,
    /// Interactive sessions currently open.
    pub open_sessions: usize,
    /// Panics caught (and answered as `internal_error`) since start.
    pub panics_caught: usize,
}

/// Render a cache-stats snapshot (plus server-level counters) into the
/// `stats` response payload. `server_id` and `uptime_ms` are additive
/// (protocol v1 version rule): they let a fleet router attribute the
/// numbers to one worker without inferring identity from the transport.
pub fn stats_json(
    stats: &CacheStats,
    server_id: &str,
    uptime: std::time::Duration,
    requests: usize,
    load: &ServerLoad,
) -> Json {
    Json::obj([
        ("server_id", Json::str(server_id)),
        ("uptime_secs", Json::uint(uptime.as_secs() as u128)),
        ("uptime_ms", Json::uint(uptime.as_millis())),
        ("requests", Json::uint(requests as u128)),
        ("resident_modules", Json::uint(stats.modules as u128)),
        (
            "load",
            Json::obj([
                // Jobs run on the connection thread that read them, so
                // nothing ever waits in a queue; the field stays because
                // protocol v1 only adds fields.
                ("queue_depth", Json::uint(0)),
                (
                    "queue_cap",
                    load.queue_cap
                        .map(|c| Json::uint(c as u128))
                        .unwrap_or(Json::Null),
                ),
                ("inflight", Json::uint(load.inflight as u128)),
                ("shed", Json::uint(load.shed as u128)),
                ("open_sessions", Json::uint(load.open_sessions as u128)),
                ("panics_caught", Json::uint(load.panics_caught as u128)),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("elaborate_hits", Json::uint(stats.elaborate_hits as u128)),
                (
                    "elaborate_misses",
                    Json::uint(stats.elaborate_misses as u128),
                ),
                ("compile_hits", Json::uint(stats.compile_hits as u128)),
                ("compile_misses", Json::uint(stats.compile_misses as u128)),
                ("evictions", Json::uint(stats.evictions as u128)),
                ("entries", Json::uint(stats.entries as u128)),
                (
                    "capacity",
                    stats
                        .capacity
                        .map(|c| Json::uint(c as u128))
                        .unwrap_or(Json::Null),
                ),
                ("approx_bytes", Json::uint(stats.approx_bytes as u128)),
                (
                    "designs",
                    Json::Arr(
                        stats
                            .designs
                            .iter()
                            .map(|d| {
                                Json::obj([
                                    ("design", Json::str(format!("{:032x}", d.fingerprint))),
                                    ("top", Json::str(d.top.clone())),
                                    ("runs", Json::uint(d.runs as u128)),
                                    ("approx_bytes", Json::uint(d.approx_bytes as u128)),
                                    ("compiled", Json::Bool(d.compiled)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Request, ProtoError> {
        Request::parse(&Json::parse(text).unwrap())
    }

    #[test]
    fn parses_the_request_types() {
        assert!(matches!(parse(r#"{"type":"ping"}"#), Ok(Request::Ping)));
        assert!(matches!(parse(r#"{"type":"stats"}"#), Ok(Request::Stats)));
        assert!(matches!(
            parse(r#"{"type":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
        let sim = parse(r#"{"type":"sim","source":"proc @p...","top":"p","engine":"compile","until_ns":50,"trace":"vcd"}"#).unwrap();
        match sim {
            Request::Sim(job) => {
                assert_eq!(job.top, "p");
                assert_eq!(job.engine, EngineKind::Compile);
                assert_eq!(job.until_ns, Some(50));
                assert_eq!(job.trace, TraceMode::Vcd);
                let config = job.sim_config();
                assert!(config.trace);
                assert_eq!(config.max_time, llhd::value::TimeValue::from_nanos(50));
            }
            other => panic!("not a sim request: {:?}", other),
        }
        let batch = parse(
            r#"{"type":"batch","jobs":[{"design":"00ff","top":"a"},{"design":"00ff","top":"b"}]}"#,
        )
        .unwrap();
        match batch {
            Request::Batch(jobs) => assert_eq!(jobs.len(), 2),
            other => panic!("not a batch request: {:?}", other),
        }
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        for (text, needle) in [
            (r#"[1,2]"#, "must be a JSON object"),
            (r#"{}"#, "\"type\""),
            (r#"{"type":"nope"}"#, "unknown request type"),
            (r#"{"type":"sim","top":"p"}"#, "\"source\""),
            (r#"{"type":"sim","source":"x"}"#, "\"top\""),
            (
                r#"{"type":"sim","source":"x","top":"p","engine":"jit"}"#,
                "\"engine\"",
            ),
            (
                r#"{"type":"sim","source":"x","top":"p","until_ns":-4}"#,
                "non-negative",
            ),
            // Out-of-range values are rejected, not silently truncated:
            // 2^32 would wrap a u32 delta guard to 0, and an until_ns
            // past 2^64 would overflow the femtosecond conversion.
            (
                r#"{"type":"sim","source":"x","top":"p","max_deltas_per_instant":4294967296}"#,
                "at most",
            ),
            (
                r#"{"type":"sim","source":"x","top":"p","until_ns":99999999999999999999999}"#,
                "at most",
            ),
            (
                r#"{"type":"sim","source":"x","top":"p","trace":"all"}"#,
                "\"trace\"",
            ),
            (r#"{"type":"batch"}"#, "\"jobs\""),
            (r#"{"type":"batch","jobs":[]}"#, "at least one"),
            (r#"{"v":2,"type":"ping"}"#, "version"),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Protocol, "{}", text);
            assert!(err.message.contains(needle), "{}: {}", text, err.message);
        }
    }

    #[test]
    fn trace_signals_imply_vcd_delivery() {
        // A filter without an explicit mode delivers the (filtered) VCD.
        let implied =
            parse(r#"{"type":"sim","source":"x","top":"p","trace_signals":["led"]}"#).unwrap();
        match implied {
            Request::Sim(job) => {
                assert_eq!(job.trace, TraceMode::Vcd);
                let config = job.sim_config();
                assert!(config.trace);
                assert_eq!(config.trace_filter, Some(vec!["led".to_string()]));
            }
            other => panic!("not a sim request: {:?}", other),
        }
        // An explicit "off" alongside a filter is contradictory: the
        // trace would be recorded but never delivered.
        let err =
            parse(r#"{"type":"sim","source":"x","top":"p","trace":"off","trace_signals":["led"]}"#)
                .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Protocol);
        assert!(err.message.contains("trace_signals"), "{}", err.message);
    }

    #[test]
    fn parses_the_session_request_family() {
        let create = parse(r#"{"type":"session.create","source":"proc @p...","top":"p","engine":"interpret","until_ns":100}"#).unwrap();
        assert!(matches!(create, Request::SessionCreate(_)));
        match parse(r#"{"type":"session.step","session":"s1","steps":5,"deadline_ms":200}"#)
            .unwrap()
        {
            Request::SessionStep {
                session,
                steps,
                deadline_ms,
            } => {
                assert_eq!(session, "s1");
                assert_eq!(steps, 5);
                assert_eq!(deadline_ms, Some(200));
            }
            other => panic!("not a step request: {:?}", other),
        }
        // "steps" defaults to 1.
        assert!(matches!(
            parse(r#"{"type":"session.step","session":"s1"}"#).unwrap(),
            Request::SessionStep { steps: 1, .. }
        ));
        assert!(matches!(
            parse(r#"{"type":"session.peek","session":"s1","signal":"top.led"}"#).unwrap(),
            Request::SessionPeek { .. }
        ));
        match parse(r#"{"type":"session.poke","session":"s1","signal":"top.a","value":42}"#)
            .unwrap()
        {
            Request::SessionPoke { value, .. } => assert_eq!(value, 42),
            other => panic!("not a poke request: {:?}", other),
        }
        match parse(r#"{"type":"session.query","session":"s1","query":"drivers","signal":"top.a"}"#)
            .unwrap()
        {
            Request::SessionQuery { query, .. } => {
                assert_eq!(query, QueryKind::Drivers("top.a".to_string()));
            }
            other => panic!("not a query request: {:?}", other),
        }
        assert!(matches!(
            parse(r#"{"type":"session.query","session":"s1","query":"hierarchy"}"#).unwrap(),
            Request::SessionQuery {
                query: QueryKind::Hierarchy,
                ..
            }
        ));
        assert!(matches!(
            parse(r#"{"type":"session.checkpoint","session":"s1"}"#).unwrap(),
            Request::SessionCheckpoint { .. }
        ));
        match parse(r#"{"type":"session.restore","source":"x","top":"p","state":"4c48"}"#).unwrap()
        {
            Request::SessionRestore { state_hex, .. } => assert_eq!(state_hex, "4c48"),
            other => panic!("not a restore request: {:?}", other),
        }
        assert!(matches!(
            parse(r#"{"type":"session.destroy","session":"s1"}"#).unwrap(),
            Request::SessionDestroy { .. }
        ));
    }

    #[test]
    fn malformed_session_requests_are_protocol_errors() {
        for (text, needle) in [
            (r#"{"type":"session.step"}"#, "\"session\""),
            (
                r#"{"type":"session.step","session":"s1","steps":0}"#,
                "at least 1",
            ),
            (r#"{"type":"session.peek","session":"s1"}"#, "\"signal\""),
            (
                r#"{"type":"session.poke","session":"s1","signal":"a"}"#,
                "\"value\"",
            ),
            (r#"{"type":"session.query","session":"s1"}"#, "\"query\""),
            (
                r#"{"type":"session.query","session":"s1","query":"nope"}"#,
                "unknown \"query\"",
            ),
            (
                r#"{"type":"session.query","session":"s1","query":"drivers"}"#,
                "\"signal\"",
            ),
            (
                r#"{"type":"session.restore","source":"x","top":"p"}"#,
                "\"state\"",
            ),
            (r#"{"type":"session.create","top":"p"}"#, "\"source\""),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Protocol, "{}", text);
            assert!(err.message.contains(needle), "{}: {}", text, err.message);
        }
    }

    #[test]
    fn hex_codec_roundtrips() {
        let bytes: Vec<u8> = (0..=255).collect();
        let hex = hex_encode(&bytes);
        assert_eq!(hex.len(), 512);
        assert_eq!(hex_decode(&hex).unwrap(), bytes);
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn unknown_fields_are_ignored() {
        assert!(matches!(
            parse(r#"{"type":"ping","future_field":123}"#),
            Ok(Request::Ping)
        ));
    }

    #[test]
    fn responses_carry_the_envelope() {
        let ok = ok_response(Some(Json::Int(7)), Json::obj([("pong", Json::Bool(true))]));
        assert_eq!(
            ok.to_string(),
            r#"{"v":1,"ok":true,"id":7,"result":{"pong":true}}"#
        );
        let err = error_response(None, &ProtoError::new(ErrorKind::Parse, "bad"));
        assert_eq!(
            err.to_string(),
            r#"{"v":1,"ok":false,"error":{"kind":"parse","message":"bad","retryable":false}}"#
        );
        let shed = error_response(
            None,
            &ProtoError::new(ErrorKind::Overloaded, "queue full")
                .with_data("retry_after_ms", Json::uint(25)),
        );
        assert_eq!(
            shed.to_string(),
            r#"{"v":1,"ok":false,"error":{"kind":"overloaded","message":"queue full","retryable":true,"retry_after_ms":25}}"#
        );
    }

    #[test]
    fn deadline_ms_parses_and_rejects_garbage() {
        match parse(r#"{"type":"sim","source":"x","top":"p","deadline_ms":250}"#).unwrap() {
            Request::Sim(job) => assert_eq!(job.deadline_ms, Some(250)),
            other => panic!("not a sim request: {:?}", other),
        }
        // Zero is a legal fail-fast budget, and the field is optional.
        match parse(r#"{"type":"sim","source":"x","top":"p","deadline_ms":0}"#).unwrap() {
            Request::Sim(job) => assert_eq!(job.deadline_ms, Some(0)),
            other => panic!("not a sim request: {:?}", other),
        }
        match parse(r#"{"type":"session.step","session":"s1","deadline_ms":50}"#).unwrap() {
            Request::SessionStep { deadline_ms, .. } => assert_eq!(deadline_ms, Some(50)),
            other => panic!("not a step request: {:?}", other),
        }
        for text in [
            r#"{"type":"sim","source":"x","top":"p","deadline_ms":-1}"#,
            r#"{"type":"sim","source":"x","top":"p","deadline_ms":"fast"}"#,
            r#"{"type":"sim","source":"x","top":"p","deadline_ms":99999999999999}"#,
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Protocol, "{}", text);
            assert!(err.message.contains("deadline_ms"), "{}", err.message);
        }
    }

    #[test]
    fn retired_threads_field_is_ignored() {
        // Old clients may still send `threads`; it selects nothing, in any
        // form, and parses like the same request without it.
        let plain = format!(
            "{:?}",
            parse(r#"{"type":"sim","source":"x","top":"p"}"#).unwrap()
        );
        for value in ["4", "65", r#""all""#] {
            let text = format!(
                r#"{{"type":"sim","source":"x","top":"p","threads":{}}}"#,
                value
            );
            assert_eq!(format!("{:?}", parse(&text).unwrap()), plain, "{}", text);
        }
    }

    #[test]
    fn retryability_is_fixed_per_kind() {
        for kind in [
            ErrorKind::Parse,
            ErrorKind::Protocol,
            ErrorKind::Source,
            ErrorKind::Elaborate,
            ErrorKind::Compile,
            ErrorKind::Runtime,
            ErrorKind::UnknownSignal,
            ErrorKind::UnknownDesign,
            ErrorKind::UnknownSession,
            ErrorKind::SessionLimit,
            ErrorKind::DeadlineExceeded,
            ErrorKind::Internal,
        ] {
            assert!(!kind.retryable(), "{:?} must not be retryable", kind);
        }
        assert!(ErrorKind::Overloaded.retryable());
        assert!(ErrorKind::Shutdown.retryable());
    }

    #[test]
    fn every_error_kind_round_trips_through_its_wire_name() {
        use ErrorKind::*;
        let all = [
            Parse,
            Protocol,
            Source,
            Elaborate,
            Compile,
            Runtime,
            UnknownSignal,
            UnknownDesign,
            UnknownSession,
            SessionLimit,
            Shutdown,
            DeadlineExceeded,
            Overloaded,
            Internal,
        ];
        for kind in all {
            // Exhaustive on purpose: a new kind stops this compiling
            // until it is listed above.
            match kind {
                Parse | Protocol | Source | Elaborate | Compile | Runtime | UnknownSignal
                | UnknownDesign | UnknownSession | SessionLimit | Shutdown | DeadlineExceeded
                | Overloaded | Internal => {}
            }
            assert_eq!(ErrorKind::from_wire_name(kind.wire_name()), Some(kind));
        }
        assert_eq!(ErrorKind::from_wire_name("internal"), None);
        assert_eq!(ErrorKind::from_wire_name(""), None);
    }
}
