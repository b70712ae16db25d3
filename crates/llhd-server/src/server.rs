//! The server runtime: shared state, connection handling over TCP and
//! stdio, and graceful shutdown.
//!
//! # Architecture
//!
//! ```text
//!  TCP clients ──► one thread per connection ─┐    ┌─► SimSession::run_batch
//!                                             ├─► handle_line
//!  stdio client ─► the serving thread ────────┘    └─► session table entry, locked
//!                                                   (on the thread that read the line)
//!           shared: design store (DesignCache) + admission gate + session table
//! ```
//!
//! Each connection is read line by line and has at most one request
//! outstanding, so the thread that read a request runs its simulation
//! jobs itself: a `sim` request is a one-job [`SimSession::run_batch`]
//! call, which spawns no thread, and a `batch` request fans its jobs out
//! across cores inside that call. Every job executes against the
//! server's one design store, a [`DesignCache`]: it holds each design's
//! module, the source text it was submitted as and its artifacts under
//! the design key, and one capacity and one LRU order decide what stays.
//! A resent inline source is found by its text and is neither parsed nor
//! fingerprinted again, and a `design` key names a module in the store.
//! Concurrent requests for the same design elaborate and compile exactly
//! once (the store's per-`(design, top)` locking), and repeat requests
//! are served from the warmed store — an engine over a cached compiled
//! design costs a reference-count bump plus a register file clone.
//!
//! An interactive session is an entry in the session table, not a
//! thread: it owns its engine and its module, and a `session.*` command
//! runs on the thread of the connection that sent it, under the entry's
//! lock, so commands to one session run one at a time. Idle
//! expiry is checked when a session is touched, on `session.create` and
//! on `stats`.
//!
//! Shutdown is graceful: once it begins, new jobs are refused with an
//! error of kind `shutdown`, and a job admitted before that runs to
//! completion on its connection thread. The TCP server waits for its
//! connection threads up to the drain deadline, then returns and leaves
//! stragglers running; their clients see the connection close when the
//! process exits. The connection and accept loops are the shared front
//! end in [`front`](crate::front), which the fleet router runs too.
//!
//! # Failure model
//!
//! Every simulation job, session command, and request line runs inside a
//! panic domain (`catch_unwind`): a panicking engine costs its own
//! request an `internal_error` response while the server keeps serving.
//! A fill that panicked loses its artifacts, not its design. Jobs carry
//! an optional wall-clock deadline enforced between engine step-chunks,
//! and the jobs in flight can be bounded (`queue_cap`, [`Admission`]),
//! shedding load with a retryable `overloaded` error. See
//! `ARCHITECTURE.md`, "Failure model".

use crate::admission::Admission;
use crate::front::{
    default_server_id, handle_connection, Running, Service, ShutdownLatch, DEFAULT_DRAIN_DEADLINE,
    READ_TICK,
};
use crate::json::Json;
use crate::protocol::{
    batch_entry, error_response, hex_decode, hex_encode, ok_response, request_id, sim_result_json,
    stats_json, ErrorKind, ProtoError, QueryKind, Request, ServerLoad, SimJobSpec, TraceMode,
};
use crate::wire::{write_line, LineReader};
use llhd::ir::Module;
use llhd::value::ConstValue;
use llhd_sim::api::{panic_message, BatchJob, DesignCache, EngineState, SimSession};
use llhd_sim::design::{InstanceId, InstanceKind};
use llhd_sim::{DesignQuery, RunControl, SimConfig};
use std::collections::HashMap;
use std::fmt::Display;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lock a server mutex, recovering from poison. Every server lock guards
/// state that is updated in single non-panicking operations (map
/// inserts/removes, vec pushes, flag stores), so a poisoned guard means
/// some *other* holder panicked mid-request — the state itself is
/// consistent and serving must continue.
fn plock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The default cap on concurrently open interactive sessions.
const DEFAULT_SESSION_CAP: usize = 64;

/// The default per-session idle timeout: a session that has received no
/// command for this long expires (its engine state is dropped; a client
/// that checkpointed can restore).
const DEFAULT_SESSION_IDLE: Duration = Duration::from_secs(600);

/// Server construction options.
#[derive(Clone, Debug, Default)]
pub struct ServerConfig {
    /// Bound the design store ([`DesignCache`]) to this many designs,
    /// LRU-evicted beyond it; an evicted design takes its module, its
    /// source text and its artifacts with it, and its key then answers
    /// `unknown_design`. `None`: unbounded.
    pub cache_capacity: Option<usize>,
    /// Emit a stats log line to stderr at this interval. `None`: silent.
    pub stats_interval: Option<Duration>,
    /// Cap on concurrently open interactive sessions. `None`: the
    /// built-in default (64). Unlike `cache_capacity`, sessions hold a
    /// live engine each, so there is always *some* cap.
    pub session_cap: Option<usize>,
    /// Expire a session that has received no command for this long.
    /// Expiry is checked when the session is next touched, on every
    /// `session.create` and on every `stats`; until then an abandoned
    /// session's engine stays resident, and `session_cap` bounds how many
    /// do. `None`: the built-in default (10 minutes).
    pub session_idle_timeout: Option<Duration>,
    /// Cap on jobs in flight (admitted and not yet answered): a job
    /// group that would push the count past it is shed with a retryable
    /// `overloaded` error carrying a `retry_after_ms` hint. `None`:
    /// unbounded, nothing sheds.
    pub queue_cap: Option<usize>,
    /// How long a TCP shutdown waits for connection threads to finish
    /// their in-flight jobs before returning without them. `None`: the
    /// built-in default (30 seconds).
    pub drain_deadline: Option<Duration>,
    /// Stable identity this process reports in `ping` and `stats`
    /// responses (`server_id`), so a fleet router can attribute
    /// per-worker numbers. `None`: a pid+start-time derived default.
    pub server_id: Option<String>,
    /// The deterministic fault plan driving the chaos harness. `None`:
    /// no faults. Only present with the `fault-injection` feature.
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Option<Arc<crate::fault::FaultPlan>>,
}

/// One open interactive session: its engine and what its commands and
/// `finish` read.
struct Session {
    sim: SimSession,
    /// The module the session was built from, for the query index.
    module: Arc<Module>,
    key: u128,
    top: String,
    trace: TraceMode,
    /// The connectivity index, built on the first `session.query`: pure
    /// step/peek/poke sessions never pay for it.
    index: Option<DesignQuery>,
    last_used: Instant,
}

/// A session table entry. Its lock serializes the session's commands;
/// `None` once the session has ended (destroy, idle expiry, a panic), so
/// a command that looked it up before that answers `unknown_session`.
type SessionEntry = Arc<Mutex<Option<Session>>>;

/// The open-session table: id → session. A command runs on the thread of
/// the connection that sent it, under its entry's lock; a removed entry
/// (destroy, idle expiry, shutdown) is dropped once no command holds it.
#[derive(Default)]
struct Sessions {
    map: HashMap<String, SessionEntry>,
    counter: u64,
}

impl Sessions {
    /// Look up `id`; an entry idle past `idle` is removed instead.
    fn get(&mut self, id: &str, idle: Duration) -> Result<SessionEntry, ProtoError> {
        let entry = self.map.get(id).ok_or_else(|| unknown_session(id))?;
        if expire(entry, idle) {
            self.map.remove(id);
            return Err(unknown_session(id));
        }
        Ok(Arc::clone(entry))
    }

    /// Remove every entry idle past `idle`; the number left open.
    fn sweep(&mut self, idle: Duration) -> usize {
        self.map.retain(|_, entry| !expire(entry, idle));
        self.map.len()
    }
}

/// Whether a session is over: ended, or unlocked and untouched for
/// `idle`, in which case it ends here. A locked session is busy, so it
/// never counts as idle.
fn expire(entry: &Mutex<Option<Session>>, idle: Duration) -> bool {
    let mut slot = match entry.try_lock() {
        Ok(slot) => slot,
        Err(TryLockError::Poisoned(e)) => e.into_inner(),
        Err(TryLockError::WouldBlock) => return false,
    };
    if slot.as_ref().is_some_and(|s| s.last_used.elapsed() >= idle) {
        *slot = None;
    }
    slot.is_none()
}

fn unknown_session(id: &str) -> ProtoError {
    let message = format!("session {id:?} does not exist (expired, destroyed, or never created)");
    ProtoError::new(ErrorKind::UnknownSession, message)
}

/// Shared state of one running server: the design store, the admission
/// gate, the session table, and the counters behind the `stats` endpoint.
pub struct ServerState {
    /// The one design store: modules, their source texts and artifacts.
    cache: DesignCache,
    /// Set once shutdown has begun: new jobs and sessions are refused.
    latch: ShutdownLatch,
    started: Instant,
    /// The identity reported in `ping`/`stats` (`server_id`).
    server_id: String,
    /// Simulation jobs accepted (batch jobs count individually).
    requests: AtomicUsize,
    /// Open interactive sessions.
    sessions: Mutex<Sessions>,
    /// Cap on concurrently open sessions.
    session_cap: usize,
    /// Idle timeout after which a session expires.
    session_idle: Duration,
    /// Jobs in flight, their cap (`queue_cap`) and the shed count.
    admission: Admission,
    /// How long a TCP shutdown waits for connection threads.
    drain_deadline: Duration,
    /// Panics caught (and answered as `internal_error`) since start.
    panics_caught: AtomicUsize,
    /// The deterministic fault plan, when the chaos harness is armed.
    #[cfg(feature = "fault-injection")]
    fault: Option<Arc<crate::fault::FaultPlan>>,
}

impl ServerState {
    fn new(config: &ServerConfig) -> Self {
        let cache = DesignCache::new();
        cache.set_capacity(config.cache_capacity);
        ServerState {
            cache,
            latch: ShutdownLatch::default(),
            started: Instant::now(),
            server_id: config
                .server_id
                .clone()
                .filter(|id| !id.is_empty())
                .unwrap_or_else(default_server_id),
            requests: AtomicUsize::new(0),
            sessions: Mutex::default(),
            session_cap: config.session_cap.unwrap_or(DEFAULT_SESSION_CAP),
            session_idle: config.session_idle_timeout.unwrap_or(DEFAULT_SESSION_IDLE),
            admission: Admission::new(config.queue_cap),
            drain_deadline: config.drain_deadline.unwrap_or(DEFAULT_DRAIN_DEADLINE),
            panics_caught: AtomicUsize::new(0),
            #[cfg(feature = "fault-injection")]
            fault: config.fault_plan.clone(),
        }
    }

    /// Phantom in-flight jobs injected by the fault plan (`queue.pressure`
    /// site); zero without the `fault-injection` feature.
    fn fault_queue_pressure(&self) -> usize {
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &self.fault {
            return plan.queue_pressure();
        }
        0
    }

    /// Arm the fault plan's `sim.panic` site on a job's run control: the
    /// probe panics at a plan-chosen scheduler cycle, mid-simulation,
    /// inside `run_batch`'s per-job panic domain.
    #[cfg(feature = "fault-injection")]
    fn arm_fault_probe(&self, config: &mut SimConfig) {
        let Some(plan) = &self.fault else { return };
        let Some(at_cycle) = plan.sim_panic_cycle() else {
            return;
        };
        let cycles = AtomicUsize::new(0);
        config.control.probe = Some(Arc::new(move || {
            if cycles.fetch_add(1, Ordering::Relaxed) as u64 == at_cycle {
                panic!(
                    "injected fault: simulation panic at cycle {} (site sim.panic)",
                    at_cycle
                );
            }
        }));
    }

    #[cfg(not(feature = "fault-injection"))]
    fn arm_fault_probe(&self, _config: &mut SimConfig) {}

    /// Whether shutdown has begun.
    pub fn shutting_down(&self) -> bool {
        self.latch.is_set()
    }

    /// Begin graceful shutdown: refuse new jobs and sessions, drop the
    /// session table, and unblock the accept loop. Jobs already admitted,
    /// and session commands already running (each holds its own session),
    /// run to completion on their connection threads.
    pub fn begin_shutdown(&self) {
        self.latch.set();
        plock(&self.sessions).map.clear();
    }

    /// Resolve a job's design reference to a stored module + key: inline
    /// source goes through the store (parsed and fingerprinted only when
    /// the text is new to it), a key must name a stored module.
    fn resolve_module(&self, spec: &SimJobSpec) -> Result<(Arc<Module>, u128), ProtoError> {
        if let Some(source) = &spec.source {
            return self.cache.module_for_source(source).map_err(|e| {
                ProtoError::new(ErrorKind::Source, format!("invalid LLHD assembly: {}", e))
            });
        }
        let text = spec
            .design
            .as_deref()
            .expect("parser requires source or design");
        let key = u128::from_str_radix(text, 16).map_err(|_| {
            ProtoError::new(
                ErrorKind::Protocol,
                format!("\"design\" must be a hex key, got {:?}", text),
            )
        })?;
        match self.cache.module(key) {
            Some(module) => Ok((module, key)),
            None => Err(ProtoError::new(
                ErrorKind::UnknownDesign,
                format!("design {:032x} is not resident (evicted or never submitted); resend its source", key),
            )),
        }
    }

    /// Execute one group of jobs (a `sim` request is a group of one) on
    /// the calling thread and render each job's response payload. The
    /// group is admitted as a whole; a bad design reference fails only
    /// its own job, and in a batch the other jobs still run.
    fn run_jobs(&self, specs: &[SimJobSpec]) -> Result<Vec<Result<Json, ProtoError>>, ProtoError> {
        let resolved: Vec<_> = specs.iter().map(|spec| self.resolve_module(spec)).collect();
        let jobs: Vec<BatchJob> = specs
            .iter()
            .zip(&resolved)
            .filter_map(|(spec, resolved)| {
                let (module, key) = resolved.as_ref().ok()?;
                let mut config = spec.sim_config();
                if let Some(ms) = spec.deadline_ms {
                    config.control.deadline = Some(Instant::now() + Duration::from_millis(ms));
                }
                self.arm_fault_probe(&mut config);
                Some(BatchJob {
                    module,
                    top: &spec.top,
                    engine: spec.engine,
                    config,
                    cache_key: Some(*key),
                })
            })
            .collect();
        if self.shutting_down() {
            return Err(ProtoError::new(
                ErrorKind::Shutdown,
                "server is shutting down; no new simulations are accepted",
            ));
        }
        let _permit = self
            .admission
            .admit(jobs.len(), self.fault_queue_pressure())?;
        self.requests.fetch_add(jobs.len(), Ordering::Relaxed);
        let mut results = SimSession::run_batch(&jobs, Some(&self.cache)).into_iter();
        drop(jobs);
        let mut out = Vec::with_capacity(specs.len());
        for (spec, resolved) in specs.iter().zip(resolved) {
            let key = match resolved {
                Ok((_, key)) => key,
                Err(e) => {
                    out.push(Err(e));
                    continue;
                }
            };
            out.push(match results.next().expect("one result per resolved job") {
                Ok(result) => Ok(sim_result_json(
                    &format!("{:032x}", key),
                    &spec.top,
                    spec.engine,
                    spec.trace,
                    &result,
                )),
                Err(e) => {
                    if matches!(e, llhd_sim::api::Error::Panic(_)) {
                        self.note_panic();
                    }
                    Err(e.into())
                }
            });
        }
        Ok(out)
    }

    /// Open a new interactive session (optionally restoring a checkpoint
    /// into it) and return the `session.create`/`session.restore` payload.
    /// The engine is built on the calling thread; idle sessions are swept
    /// before the cap check.
    fn create_session(
        &self,
        spec: SimJobSpec,
        restore: Option<EngineState>,
    ) -> Result<Json, ProtoError> {
        if self.shutting_down() {
            return Err(ProtoError::new(
                ErrorKind::Shutdown,
                "server is shutting down; no new sessions are accepted",
            ));
        }
        let (module, key) = self.resolve_module(&spec)?;
        let mut sim = SimSession::builder(&module, &spec.top)
            .engine(spec.engine)
            .config(spec.sim_config())
            .cache(&self.cache)
            .cache_key(key)
            .build()?;
        if let Some(snapshot) = &restore {
            sim.restore(snapshot)?;
        }
        let engine = sim.engine_name();
        let mut sessions = plock(&self.sessions);
        if sessions.sweep(self.session_idle) >= self.session_cap {
            return Err(ProtoError::new(
                ErrorKind::SessionLimit,
                format!(
                    "session cap of {} reached; destroy a session first",
                    self.session_cap
                ),
            ));
        }
        sessions.counter += 1;
        let id = format!("s{}", sessions.counter);
        let entry = Arc::new(Mutex::new(Some(Session {
            sim,
            module,
            key,
            top: spec.top,
            trace: spec.trace,
            index: None,
            last_used: Instant::now(),
        })));
        sessions.map.insert(id.clone(), entry);
        Ok(Json::obj([
            ("session", Json::str(id)),
            ("design", Json::str(format!("{:032x}", key))),
            ("engine", Json::str(engine)),
            ("restored", Json::Bool(restore.is_some())),
        ]))
    }

    /// Run one command on session `id` on the calling thread, under the
    /// session's lock and inside its own panic domain. A panic ends the
    /// session (its engine may be mid-update) and answers
    /// `internal_error`; the server and every other session keep running.
    fn with_session(
        &self,
        id: &str,
        command: impl FnOnce(&mut Session) -> Result<Json, ProtoError>,
    ) -> Result<Json, ProtoError> {
        let entry = plock(&self.sessions).get(id, self.session_idle)?;
        let mut slot = plock(&entry);
        let session = slot.as_mut().ok_or_else(|| unknown_session(id))?;
        match catch_unwind(AssertUnwindSafe(|| command(session))) {
            Ok(outcome) => {
                session.last_used = Instant::now();
                outcome
            }
            Err(payload) => {
                *slot = None;
                drop(slot);
                plock(&self.sessions).map.remove(id);
                self.note_panic();
                Err(ProtoError::new(
                    ErrorKind::Internal,
                    format!(
                        "session command panicked: {} (the session has been destroyed)",
                        panic_message(&*payload)
                    ),
                ))
            }
        }
    }

    /// `session.destroy`: take the session out of the table, wait for a
    /// command still running on it, and render its final result.
    fn destroy_session(&self, id: &str) -> Result<Json, ProtoError> {
        let entry = {
            let mut sessions = plock(&self.sessions);
            let entry = sessions.get(id, self.session_idle)?;
            sessions.map.remove(id);
            entry
        };
        let session = plock(&entry).take().ok_or_else(|| unknown_session(id))?;
        let (key, kind) = (format!("{:032x}", session.key), session.sim.engine_kind());
        let result = session.sim.finish()?;
        Ok(sim_result_json(
            &key,
            &session.top,
            kind,
            session.trace,
            &result,
        ))
    }

    /// Handle one request line, returning the response and whether the
    /// connection should close afterwards (shutdown acknowledgements).
    pub fn handle_line(self: &Arc<Self>, line: &str) -> (Json, bool) {
        let value = match Json::parse(line) {
            Ok(value) => value,
            Err(message) => {
                return (
                    error_response(None, &ProtoError::new(ErrorKind::Parse, message)),
                    false,
                )
            }
        };
        let id = request_id(&value);
        let request = match Request::parse(&value) {
            Ok(request) => request,
            Err(e) => return (error_response(id, &e), false),
        };
        let close = matches!(request, Request::Shutdown);
        let outcome = match request {
            Request::Ping => Ok(Json::obj([
                ("pong", Json::Bool(true)),
                ("server_id", Json::str(self.server_id.clone())),
                ("uptime_ms", Json::uint(self.started.elapsed().as_millis())),
            ])),
            Request::Stats => {
                let load = ServerLoad {
                    queue_cap: self.admission.cap(),
                    inflight: self.admission.inflight(),
                    shed: self.admission.shed(),
                    open_sessions: plock(&self.sessions).sweep(self.session_idle),
                    panics_caught: self.panics_caught.load(Ordering::Relaxed),
                };
                Ok(stats_json(
                    &self.cache.stats(),
                    &self.server_id,
                    self.started.elapsed(),
                    self.requests.load(Ordering::Relaxed),
                    &load,
                ))
            }
            Request::Shutdown => {
                self.begin_shutdown();
                Ok(Json::obj([("shutting_down", Json::Bool(true))]))
            }
            Request::Sim(spec) => self
                .run_jobs(std::slice::from_ref(&spec))
                .and_then(|mut results| results.remove(0)),
            Request::Batch(specs) => self.run_jobs(&specs).map(|results| {
                let entries = results.into_iter().map(batch_entry).collect();
                Json::obj([("results", Json::Arr(entries))])
            }),
            Request::SessionCreate(spec) => self.create_session(spec, None),
            Request::SessionRestore { spec, state_hex } => hex_decode(&state_hex)
                .and_then(|bytes| {
                    EngineState::from_bytes(bytes).map_err(|e| {
                        ProtoError::new(ErrorKind::Protocol, format!("invalid checkpoint: {}", e))
                    })
                })
                .and_then(|snapshot| self.create_session(spec, Some(snapshot))),
            Request::SessionStep {
                session,
                steps,
                deadline_ms,
            } => self.with_session(&session, |s| step_session(&mut s.sim, steps, deadline_ms)),
            Request::SessionPeek { session, signal } => {
                self.with_session(&session, |s| peek_session(&s.sim, &signal))
            }
            Request::SessionPoke {
                session,
                signal,
                value,
            } => self.with_session(&session, |s| poke_session(&mut s.sim, &signal, value)),
            Request::SessionQuery { session, query } => self.with_session(&session, |s| {
                let index = s
                    .index
                    .get_or_insert_with(|| DesignQuery::build(&s.module, s.sim.design()));
                run_query(&s.sim, index, &query)
            }),
            Request::SessionCheckpoint { session } => {
                self.with_session(&session, |s| checkpoint_session(&s.sim))
            }
            Request::SessionDestroy { session } => self.destroy_session(&session),
        };
        let response = match outcome {
            Ok(result) => ok_response(id, result),
            Err(e) => error_response(id, &e),
        };
        (response, close)
    }

    /// One human-readable observability line (the periodic server log).
    pub fn stats_line(&self) -> String {
        let stats = self.cache.stats();
        format!(
            "llhd-server: up {}s, {} jobs, cache {}{} designs (~{} KiB), elaborate {}/{} hit/miss, compile {}/{}, {} evictions",
            self.started.elapsed().as_secs(),
            self.requests.load(Ordering::Relaxed),
            stats.entries,
            stats
                .capacity
                .map(|c| format!("/{}", c))
                .unwrap_or_default(),
            stats.approx_bytes / 1024,
            stats.elaborate_hits,
            stats.elaborate_misses,
            stats.compile_hits,
            stats.compile_misses,
            stats.evictions,
        )
    }
}

/// `session.step`: advance up to `steps` scheduler cycles, optionally
/// bounded by a wall-clock budget. A blown budget is reported with the
/// progress made (`steps_taken`, `end_time_fs`) and does *not* destroy
/// the session — the engine checks it between cycles, where its state is
/// consistent, so the client can simply step again.
fn step_session(
    session: &mut SimSession,
    steps: usize,
    deadline_ms: Option<u64>,
) -> Result<Json, ProtoError> {
    if let Some(ms) = deadline_ms {
        session.set_control(RunControl::deadline_in(Duration::from_millis(ms)));
    }
    let (mut taken, mut more) = (0usize, true);
    let outcome = (|| {
        while taken < steps && more {
            (more, taken) = (session.step()?, taken + 1);
        }
        Ok(())
    })();
    if deadline_ms.is_some() {
        session.set_control(RunControl::default());
    }
    match outcome {
        Ok(()) => Ok(Json::obj([
            ("steps", Json::uint(taken as u128)),
            ("done", Json::Bool(!more)),
            ("time_fs", Json::uint(session.time().as_femtos())),
        ])),
        Err(e @ llhd_sim::api::Error::DeadlineExceeded { .. }) => {
            Err(ProtoError::from(e).with_data("steps_taken", Json::uint(taken as u128)))
        }
        Err(e) => Err(e.into()),
    }
}

/// `session.peek`: read one signal. The value is always in its printed
/// form, plus the plain integer when it is one.
fn peek_session(session: &SimSession, signal: &str) -> Result<Json, ProtoError> {
    let value = session.peek(signal)?;
    let mut fields = vec![("signal", Json::str(signal))];
    fields.push(("value", Json::str(value.to_string())));
    if let Some(n) = value.to_u64() {
        fields.push(("value_int", Json::uint(n as u128)));
    }
    fields.push(("time_fs", Json::uint(session.time().as_femtos())));
    Ok(Json::obj(fields))
}

/// `session.poke`: drive one signal with an integer value of its width.
fn poke_session(session: &mut SimSession, signal: &str, value: u128) -> Result<Json, ProtoError> {
    let current = session.peek(signal)?;
    let width = current.as_int().map(|i| i.width()).ok_or_else(|| {
        ProtoError::new(
            ErrorKind::Protocol,
            format!(
                "signal {:?} holds {} — only integer signals can be poked over the wire",
                signal, current
            ),
        )
    })?;
    let fits = value <= u64::MAX as u128 && (width >= 64 || value < (1u128 << width));
    if !fits {
        return Err(ProtoError::new(
            ErrorKind::Protocol,
            format!(
                "value {} does not fit signal {:?} (i{})",
                value, signal, width
            ),
        ));
    }
    session.poke(signal, ConstValue::int(width, value as u64))?;
    Ok(Json::obj([
        ("signal", Json::str(signal)),
        ("poked", Json::Bool(true)),
    ]))
}

/// `session.checkpoint`: serialize the full engine state for the wire.
fn checkpoint_session(session: &SimSession) -> Result<Json, ProtoError> {
    let snapshot = session.checkpoint()?;
    let bytes = snapshot.as_bytes();
    Ok(Json::obj([
        ("engine", Json::str(session.engine_name())),
        ("bytes", Json::uint(bytes.len() as u128)),
        ("state", Json::str(hex_encode(bytes))),
    ]))
}

/// `session.query`: structural queries against the elaborated design.
fn run_query(
    session: &SimSession,
    index: &DesignQuery,
    query: &QueryKind,
) -> Result<Json, ProtoError> {
    let instance_kind = |kind: InstanceKind| match kind {
        InstanceKind::Process => "process",
        InstanceKind::Entity => "entity",
    };
    let path_of = |iid: InstanceId| {
        index
            .hierarchy()
            .iter()
            .find(|node| node.instance == iid)
            .map(|node| node.path.clone())
            .unwrap_or_else(|| format!("#{}", iid.0))
    };
    match query {
        QueryKind::Hierarchy => Ok(Json::obj([(
            "hierarchy",
            Json::Arr(
                index
                    .hierarchy()
                    .iter()
                    .map(|node| {
                        Json::obj([
                            ("instance", Json::uint(node.instance.0 as u128)),
                            ("path", Json::str(node.path.clone())),
                            ("kind", Json::str(instance_kind(node.kind))),
                            ("unit", Json::str(node.unit.clone())),
                            ("depth", Json::uint(node.depth as u128)),
                        ])
                    })
                    .collect(),
            ),
        )])),
        QueryKind::Drivers(signal) | QueryKind::Watchers(signal) => {
            let sig = session.signal(signal)?;
            let (field, instances) = match query {
                QueryKind::Drivers(_) => ("drivers", index.drivers_of(sig)),
                _ => ("watchers", index.watchers_of(sig)),
            };
            Ok(Json::obj([
                ("signal", Json::str(signal.clone())),
                (
                    field,
                    Json::Arr(
                        instances
                            .iter()
                            .map(|&iid| {
                                Json::obj([
                                    ("instance", Json::uint(iid.0 as u128)),
                                    ("path", Json::str(path_of(iid))),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]))
        }
        QueryKind::UnitStats => Ok(Json::obj([
            ("engine", Json::str(session.engine_name())),
            (
                "units",
                Json::Arr(
                    session
                        .unit_stats()
                        .iter()
                        .map(|unit| {
                            Json::obj([
                                ("name", Json::str(unit.name.clone())),
                                ("kind", Json::str(unit.kind)),
                                ("base_ops", Json::uint(unit.base_ops as u128)),
                                ("superops", Json::uint(unit.superops as u128)),
                                ("instances", Json::uint(unit.instances as u128)),
                                (
                                    "specialized_instances",
                                    Json::uint(unit.specialized_instances as u128),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])),
    }
}

impl Service for ServerState {
    fn answer(self: &Arc<Self>, line: &str) -> (Json, bool) {
        self.handle_line(line)
    }

    fn latch(&self) -> &ShutdownLatch {
        &self.latch
    }

    fn stop(&self) {
        self.begin_shutdown();
    }

    /// Bump the counter and drop the artifacts of any fill the unwind
    /// left poisoned, so the next request for the same design recompiles
    /// instead of wedging; the design and its module stay in the store.
    fn note_panic(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
        self.cache.sweep_poisoned();
    }

    fn drain_deadline(&self) -> Duration {
        self.drain_deadline
    }

    /// The read side goes through the fault plan's faulty reader
    /// (`io.read` sites) when the chaos harness is armed.
    fn serve_stream(self: &Arc<Self>, stream: &TcpStream) {
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = self.fault.clone() {
            let reader = crate::fault::FaultyReader::new(stream, plan);
            let _ = handle_connection(self, reader, stream);
            return;
        }
        let _ = handle_connection(self, stream, stream);
    }
}

/// A persistent simulation server. Construct with [`Server::new`], then
/// run it over [stdio](Server::serve_stdio) or [TCP](Server::serve_tcp)
/// (or in the background with [`Server::spawn_tcp`]).
pub struct Server {
    state: Arc<ServerState>,
    stats_interval: Option<Duration>,
}

impl Server {
    /// Create a server.
    pub fn new(config: ServerConfig) -> Server {
        Server {
            state: Arc::new(ServerState::new(&config)),
            stats_interval: config.stats_interval,
        }
    }

    /// The shared state (cache counters etc.), usable while the server
    /// runs on another thread.
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    fn spawn_stats_logger(&self) -> Option<JoinHandle<()>> {
        let interval = self.stats_interval?;
        let state = self.state();
        Some(std::thread::spawn(move || {
            let mut since_log = Duration::ZERO;
            while !state.shutting_down() {
                std::thread::sleep(READ_TICK);
                since_log += READ_TICK;
                if since_log >= interval {
                    since_log = Duration::ZERO;
                    eprintln!("{}", state.stats_line());
                }
            }
        }))
    }

    /// Serve a single session over stdin/stdout (responses on stdout, the
    /// periodic stats line on stderr). Returns after EOF or a `shutdown`
    /// request; every job runs on this thread, so none is left in flight.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures on the stdio streams.
    pub fn serve_stdio(self) -> io::Result<()> {
        let logger = self.spawn_stats_logger();
        let result = handle_connection(&self.state, io::stdin().lock(), io::stdout().lock());
        self.state.begin_shutdown();
        if let Some(logger) = logger {
            let _ = logger.join();
        }
        result
    }

    /// Serve TCP connections on `listener`, one thread per connection,
    /// until a `shutdown` request arrives. Then waits for the connection
    /// threads, and the jobs running on them, up to the drain deadline;
    /// threads still running past it are left behind.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures.
    pub fn serve_tcp(self, listener: TcpListener) -> io::Result<()> {
        let logger = self.spawn_stats_logger();
        let result = crate::front::serve_tcp(&self.state, listener);
        if let Some(logger) = logger {
            let _ = logger.join();
        }
        result
    }

    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// it on a background thread. The handle exposes the bound address,
    /// the shared state, and a join for the serving thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn_tcp(config: ServerConfig, addr: &str) -> io::Result<RunningServer> {
        let listener = TcpListener::bind(addr)?;
        let server = Server::new(config);
        Running::spawn(listener, server.state(), move |listener| {
            server.serve_tcp(listener)
        })
    }
}

/// A server running on a background thread (see [`Server::spawn_tcp`]).
pub type RunningServer = Running<ServerState>;

/// A minimal blocking client for the wire protocol: one request out, one
/// response in. Used by the tests, `examples/server_client.rs`, and the
/// fleet router's worker connections; real clients in any language
/// follow the same shape (`docs/PROTOCOL.md`).
pub struct Client {
    writer: TcpStream,
    out: Vec<u8>,
    lines: LineReader<TcpStream>,
    /// The read timeout currently set on the socket.
    timeout: Option<Duration>,
}

impl Client {
    /// Connect to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Client::over(TcpStream::connect(addr)?)
    }

    /// Connect, giving up after `timeout`.
    ///
    /// # Errors
    ///
    /// Propagates connection failures, `TimedOut` included.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        Client::over(TcpStream::connect_timeout(&addr, timeout)?)
    }

    fn over(writer: TcpStream) -> io::Result<Client> {
        // Requests are single small lines; don't let Nagle batch them.
        let _ = writer.set_nodelay(true);
        let reader = writer.try_clone()?;
        Ok(Client {
            writer,
            out: Vec::new(),
            lines: LineReader::new(reader),
            timeout: None,
        })
    }

    /// Bound how long [`request`](Client::request) waits for its
    /// response (`None`: forever). The socket option is set only when
    /// the bound changes.
    ///
    /// # Errors
    ///
    /// Propagates the socket option's failure (a zero duration included).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        if self.timeout != timeout {
            self.writer.set_read_timeout(timeout)?;
            self.timeout = timeout;
        }
        Ok(())
    }

    /// Send one request — a [`Json`] value, or a line already serialized
    /// without its newline — and block for the one response line.
    ///
    /// # Errors
    ///
    /// I/O failures; `TimedOut` when the [timeout](Client::set_timeout)
    /// passes first, after which the response is still pending and the
    /// client should be dropped; `InvalidData` if the response is not
    /// JSON.
    pub fn request<T: Display + ?Sized>(&mut self, request: &T) -> io::Result<Json> {
        write_line(&mut self.writer, &mut self.out, request)?;
        match self.lines.next_line() {
            Ok(Some(line)) => {
                Json::parse(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            }
            Ok(None) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no response within the client's timeout",
            )),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MAX_LINE_BYTES;
    use std::io::{Cursor, Read, Write};

    /// Counts `write` calls: on a `TCP_NODELAY` socket each is a segment.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    const BLINK: &str = "proc @blink () -> (i1$ %led) { entry: %on = const i1 1 %off = const i1 0 \
        %t = const time 5ns drv i1$ %led, %on after %t wait %next for %t next: \
        drv i1$ %led, %off after %t wait %entry for %t }";

    /// A `ping`, a `trace:"vcd"` sim, and an over-limit line — each answer
    /// leaves in exactly one `write`.
    #[test]
    fn every_response_line_is_one_write() {
        let server = Server::new(ServerConfig::default());
        let state = server.state();
        let sim = Json::obj([
            ("type", Json::str("sim")),
            ("id", Json::Int(2)),
            ("source", Json::str(BLINK)),
            ("top", Json::str("blink")),
            ("until_ns", Json::Int(1000)),
            ("trace", Json::str("vcd")),
        ]);
        let input = Cursor::new(format!("{{\"type\":\"ping\",\"id\":1}}\n{}\n", sim))
            .chain(io::repeat(b'x').take(MAX_LINE_BYTES as u64 + 1))
            .chain(Cursor::new("\n"));
        let mut writer = CountingWriter::default();
        handle_connection(&state, input, &mut writer).unwrap();

        let text = String::from_utf8(writer.bytes).unwrap();
        let lines: Vec<Json> = text
            .lines()
            .map(|line| Json::parse(line).unwrap())
            .collect();
        assert_eq!(lines.len(), 3, "{}", text);
        assert_eq!(writer.writes, lines.len(), "one write per response line");
        assert_eq!(lines[0].get("id"), Some(&Json::Int(1)), "{}", lines[0]);
        let vcd = lines[1].get("result").and_then(|r| r.get("trace_vcd"));
        let vcd = vcd.and_then(Json::as_str).unwrap_or_default();
        assert!(vcd.contains("$enddefinitions"), "{}", lines[1]);
        let kind = lines[2].get("error").and_then(|e| e.get("kind"));
        assert_eq!(kind.and_then(Json::as_str), Some("protocol"));
    }
}
