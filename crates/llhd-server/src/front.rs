//! The protocol-v1 front end shared by the server and the fleet router:
//! the connection loop with its panic domain, the TCP accept-and-drain
//! loop, and the handle of a service running on a background thread.
//!
//! Both tiers answer one request line with one response line; what a
//! line *does* is the [`Service`]'s business, everything around it is
//! here once.

use crate::json::Json;
use crate::protocol::{error_response, request_id, ErrorKind, ProtoError};
use crate::wire::{write_line, LineReader};
use llhd_sim::api::panic_message;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection thread blocks in `read` before re-checking the
/// shutdown flag (TCP only; stdio cannot portably time out).
pub const READ_TICK: Duration = Duration::from_millis(100);

/// The default drain deadline: how long a graceful TCP shutdown waits for
/// connection threads (and the requests running on them) to finish.
pub const DEFAULT_DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// How often the shutdown drain re-checks whether a connection thread
/// has finished.
const DRAIN_TICK: Duration = Duration::from_millis(10);

/// The default identity of a process (`server_id`): pid plus start time,
/// so restarts of the same process slot (same pid reused, same `--tcp`
/// address) still read as distinct members of a fleet rollup.
pub fn default_server_id() -> String {
    let epoch_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    format!("{:x}-{:x}", std::process::id(), epoch_ms)
}

/// A service's shutdown flag, plus the address its accept loop listens
/// on so that beginning shutdown can unblock that loop.
#[derive(Debug, Default)]
pub struct ShutdownLatch {
    flag: AtomicBool,
    wake_addr: Mutex<Option<SocketAddr>>,
}

impl ShutdownLatch {
    /// Whether shutdown has begun.
    pub fn is_set(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Set the flag and unblock the accept loop, if one runs, with one
    /// throwaway connection.
    pub fn set(&self) {
        self.flag.store(true, Ordering::Relaxed);
        let addr = *self
            .wake_addr
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(addr) = addr {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
        }
    }
}

/// What the front end needs from a protocol-v1 service: the server's
/// [`ServerState`](crate::ServerState) and the router's state.
pub trait Service: Sized + Send + Sync + 'static {
    /// Answer one request line: the response, and whether the
    /// connection closes after it (a `shutdown` acknowledgement).
    fn answer(self: &Arc<Self>, line: &str) -> (Json, bool);

    /// The service's shutdown latch.
    fn latch(&self) -> &ShutdownLatch;

    /// Begin shutdown; the accept loop calls this when accepting fails.
    fn stop(&self) {
        self.latch().set();
    }

    /// Record a panic the connection loop caught and answered.
    fn note_panic(&self) {}

    /// How long a TCP shutdown waits for connection threads.
    fn drain_deadline(&self) -> Duration {
        DEFAULT_DRAIN_DEADLINE
    }

    /// Serve one accepted TCP connection.
    fn serve_stream(self: &Arc<Self>, stream: &TcpStream) {
        let _ = handle_connection(self, stream, stream);
    }
}

/// Serve one connection: read request lines, write response lines. Reads
/// that time out re-check the shutdown flag, so idle TCP connections
/// unblock during shutdown. An oversized line costs a `protocol` error
/// response, and a panicking handler an `internal_error` — the
/// connection itself survives both.
///
/// # Errors
///
/// Propagates read and write failures on the connection.
pub fn handle_connection<S: Service>(
    state: &Arc<S>,
    reader: impl Read,
    mut writer: impl Write,
) -> io::Result<()> {
    let mut lines = LineReader::new(reader);
    let mut out = Vec::new();
    loop {
        let line = match lines.next_line() {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if state.latch().is_set() {
                    return Ok(());
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized line: the reader has switched to discarding
                // its tail, so answer and keep serving this connection.
                let error = ProtoError::new(ErrorKind::Protocol, e.to_string());
                write_line(&mut writer, &mut out, &error_response(None, &error))?;
                continue;
            }
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, close) = match catch_unwind(AssertUnwindSafe(|| state.answer(&line))) {
            Ok(handled) => handled,
            Err(payload) => {
                state.note_panic();
                // Salvage the request id so the client can correlate
                // the failure, even though its handler died.
                let id = Json::parse(&line).ok().and_then(|v| request_id(&v));
                let error = ProtoError::new(
                    ErrorKind::Internal,
                    format!("request handler panicked: {}", panic_message(&*payload)),
                );
                (error_response(id, &error), false)
            }
        };
        write_line(&mut writer, &mut out, &response)?;
        if close {
            return Ok(());
        }
    }
}

/// Serve TCP connections on `listener`, one thread per connection, until
/// shutdown begins. Then wait for the connection threads, and the
/// requests running on them, up to the service's drain deadline; threads
/// still running past it are left behind.
///
/// # Errors
///
/// Propagates accept-loop I/O failures.
pub fn serve_tcp<S: Service>(state: &Arc<S>, listener: TcpListener) -> io::Result<()> {
    *state
        .latch()
        .wake_addr
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = Some(listener.local_addr()?);
    let mut connections = Vec::new();
    for stream in listener.incoming() {
        if state.latch().is_set() {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                state.stop();
                return Err(e);
            }
        };
        stream.set_read_timeout(Some(READ_TICK))?;
        // One-line request/response round trips: Nagle's algorithm
        // would add artificial latency to every response.
        let _ = stream.set_nodelay(true);
        let state = Arc::clone(state);
        connections.push(std::thread::spawn(move || state.serve_stream(&stream)));
    }
    let until = Instant::now() + state.drain_deadline();
    for connection in connections {
        while !connection.is_finished() && Instant::now() < until {
            std::thread::sleep(DRAIN_TICK);
        }
        if connection.is_finished() {
            let _ = connection.join();
        }
    }
    Ok(())
}

/// A service running on a background thread, serving a bound listener.
pub struct Running<S> {
    addr: SocketAddr,
    state: Arc<S>,
    thread: JoinHandle<io::Result<()>>,
}

impl<S> Running<S> {
    /// Run `serve` over `listener` on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates a failure to read the listener's bound address.
    pub fn spawn(
        listener: TcpListener,
        state: Arc<S>,
        serve: impl FnOnce(TcpListener) -> io::Result<()> + Send + 'static,
    ) -> io::Result<Running<S>> {
        Ok(Running {
            addr: listener.local_addr()?,
            state,
            thread: std::thread::spawn(move || serve(listener)),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (cache counters, fleet health, …).
    pub fn state(&self) -> &Arc<S> {
        &self.state
    }

    /// Wait for the serving thread to finish (it finishes after a
    /// `shutdown` request has drained).
    ///
    /// # Errors
    ///
    /// Propagates the serving thread's I/O error, if any.
    pub fn join(self) -> io::Result<()> {
        self.thread.join().unwrap_or_else(|payload| {
            Err(io::Error::other(format!(
                "serving thread panicked: {}",
                panic_message(&*payload)
            )))
        })
    }
}
