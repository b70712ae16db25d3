//! Worker connection management: pooled persistent connections with
//! per-connection request pipelining, plus the health state machine the
//! router's placement consults.
//!
//! A worker processes each connection's requests strictly in order (one
//! line in, one line out), so a single connection serializes; the pool
//! holds several pipelines per worker and round-robins across them for
//! parallelism. Within one pipeline, requests are *pipelined*: the
//! writer does not wait for the previous reply, and a reader thread
//! pairs response lines to waiters in FIFO order — the protocol has no
//! other correlation for a multiplexed connection (ids are client-owned
//! and forwarded verbatim).

use llhd_server::json::Json;
use llhd_server::wire::{write_line, LineReader};
use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How long a reader thread blocks in `read` before re-checking whether
/// its pipeline was closed.
const READ_TICK: Duration = Duration::from_millis(100);

/// How long a fresh connection attempt may take before the worker is
/// treated as unreachable for this call.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(1000);

fn plock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The reply channel of one in-flight pipelined request.
type Waiter = mpsc::Sender<io::Result<Json>>;

/// State shared between a pipeline's callers and its reader thread. One
/// lock covers the write side *and* the waiter FIFO, so the order lines
/// hit the wire is exactly the order waiters queue in — the invariant
/// FIFO reply pairing rests on.
struct PipeShared {
    stream: TcpStream,
    /// The request-line encode buffer, reused across calls.
    out: Vec<u8>,
    waiters: VecDeque<Waiter>,
    dead: bool,
}

impl PipeShared {
    /// Mark the pipeline dead and fail everything still waiting on it.
    fn fail_all(&mut self, why: &str) {
        self.dead = true;
        let _ = self.stream.shutdown(Shutdown::Both);
        for waiter in self.waiters.drain(..) {
            let _ = waiter.send(Err(io::Error::new(io::ErrorKind::BrokenPipe, why)));
        }
    }
}

/// One persistent, pipelined connection to a worker.
pub struct Pipeline {
    shared: Arc<Mutex<PipeShared>>,
}

impl Pipeline {
    /// Connect and start the reader thread.
    ///
    /// # Errors
    ///
    /// Connection failures (refused, timed out after one second).
    pub fn connect(addr: SocketAddr) -> io::Result<Pipeline> {
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        let _ = stream.set_nodelay(true);
        let reader = stream.try_clone()?;
        reader.set_read_timeout(Some(READ_TICK))?;
        let shared = Arc::new(Mutex::new(PipeShared {
            stream,
            out: Vec::new(),
            waiters: VecDeque::new(),
            dead: false,
        }));
        let thread_shared = Arc::clone(&shared);
        std::thread::spawn(move || reader_loop(reader, &thread_shared));
        Ok(Pipeline { shared })
    }

    /// Whether the connection has failed (callers should reconnect).
    pub fn is_dead(&self) -> bool {
        plock(&self.shared).dead
    }

    /// Send one request line and wait up to `timeout` for its (FIFO)
    /// response. A timeout abandons only this caller; the reply slot
    /// stays queued, so later responses still pair correctly.
    ///
    /// # Errors
    ///
    /// `BrokenPipe` when the connection is (or goes) down, `TimedOut`
    /// when no response arrives in time, `InvalidData` on a non-JSON
    /// response line.
    pub fn call(&self, line: &str, timeout: Duration) -> io::Result<Json> {
        let rx = {
            let mut guard = plock(&self.shared);
            let shared = &mut *guard;
            if shared.dead {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "worker connection is down",
                ));
            }
            let (tx, rx) = mpsc::channel();
            shared.waiters.push_back(tx);
            // A failed or partial write desynchronizes the line framing:
            // nothing sent after it can be trusted, so the whole pipeline
            // dies (callers reconnect).
            if let Err(e) = write_line(&mut shared.stream, &mut shared.out, line) {
                shared.fail_all("worker connection failed while writing a request");
                return Err(e);
            }
            rx
        };
        match rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(_) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "worker did not answer within the call timeout",
            )),
        }
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        plock(&self.shared).fail_all("pipeline closed");
    }
}

/// Pair response lines to waiters until the connection dies or closes.
fn reader_loop(reader: TcpStream, shared: &Arc<Mutex<PipeShared>>) {
    let mut lines = LineReader::new(reader);
    loop {
        match lines.next_line() {
            Ok(Some(line)) => {
                let waiter = plock(shared).waiters.pop_front();
                if let Some(waiter) = waiter {
                    let parsed = Json::parse(&line)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
                    // The caller may have timed out and gone; that's fine.
                    let _ = waiter.send(parsed);
                }
                // An unsolicited line (no waiter) is dropped: the server
                // never pushes, so this is a desync artifact at worst.
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if plock(shared).dead {
                    return;
                }
            }
            Ok(None) | Err(_) => {
                plock(shared).fail_all("worker closed the connection");
                return;
            }
        }
    }
}

/// A worker's health as the router sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    /// Answering pings; receives new placements.
    Up,
    /// Unreachable; skipped for placement until a ping succeeds.
    Down,
    /// Administratively draining: no *new* placements, but sticky
    /// session traffic and in-flight work proceed.
    Draining,
}

impl Health {
    /// The wire name used in the stats rollup.
    pub fn wire_name(self) -> &'static str {
        match self {
            Health::Up => "up",
            Health::Down => "down",
            Health::Draining => "draining",
        }
    }
}

/// One worker: its identity, address, health, and connection pool.
pub struct Worker {
    /// The router-side id (ring placement hashes this).
    pub id: String,
    /// The worker's TCP address.
    pub addr: SocketAddr,
    /// Fixed-size pool of pipelines, lazily (re)connected.
    pipes: Mutex<Vec<Option<Arc<Pipeline>>>>,
    /// Round-robin cursor over the pool.
    next: AtomicUsize,
    health: Mutex<Health>,
    /// The `server_id` the worker reported on its last successful ping.
    server_id: Mutex<Option<String>>,
    /// Up → Down transitions observed (failed calls or pings).
    pub markdowns: AtomicUsize,
}

impl Worker {
    /// A worker handle with `pool_size` pipeline slots; nothing connects
    /// until the first call.
    pub fn new(id: String, addr: SocketAddr, pool_size: usize) -> Worker {
        Worker {
            id,
            addr,
            pipes: Mutex::new(vec![None; pool_size.max(1)]),
            next: AtomicUsize::new(0),
            health: Mutex::new(Health::Up),
            server_id: Mutex::new(None),
            markdowns: AtomicUsize::new(0),
        }
    }

    /// Current health.
    pub fn health(&self) -> Health {
        *plock(&self.health)
    }

    /// Set health, counting Up/Draining → Down transitions.
    pub fn set_health(&self, health: Health) {
        let mut current = plock(&self.health);
        if *current != Health::Down && health == Health::Down {
            self.markdowns.fetch_add(1, Ordering::Relaxed);
        }
        *current = health;
    }

    /// Mark down after a transport failure (a failed ping will keep it
    /// down; a successful one brings it back). Draining is sticky: an
    /// operator's drain outlives a blip.
    pub fn mark_down(&self) {
        let mut current = plock(&self.health);
        if *current == Health::Up {
            self.markdowns.fetch_add(1, Ordering::Relaxed);
            *current = Health::Down;
        }
    }

    /// Mark up after a successful ping — unless draining (operator wins).
    pub fn mark_up(&self) {
        let mut current = plock(&self.health);
        if *current == Health::Down {
            *current = Health::Up;
        }
    }

    /// The worker's self-reported `server_id`, if a ping has seen one.
    pub fn server_id(&self) -> Option<String> {
        plock(&self.server_id).clone()
    }

    /// Record the `server_id` from a ping/stats response.
    pub fn note_server_id(&self, id: &str) {
        let mut slot = plock(&self.server_id);
        if slot.as_deref() != Some(id) {
            *slot = Some(id.to_string());
        }
    }

    /// A live pipeline from the pool (round-robin), reconnecting a dead
    /// or never-opened slot.
    ///
    /// # Errors
    ///
    /// Connection failures when the slot needs a fresh connection.
    fn pipeline(&self) -> io::Result<Arc<Pipeline>> {
        let mut pipes = plock(&self.pipes);
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % pipes.len();
        if let Some(pipe) = &pipes[slot] {
            if !pipe.is_dead() {
                return Ok(Arc::clone(pipe));
            }
        }
        let pipe = Arc::new(Pipeline::connect(self.addr)?);
        pipes[slot] = Some(Arc::clone(&pipe));
        Ok(pipe)
    }

    /// Send one request line to this worker and wait for the response.
    /// Transport failures mark the worker down (the health ping marks it
    /// back up when it recovers).
    ///
    /// # Errors
    ///
    /// Connection, write, timeout, or response-parse failures.
    pub fn call(&self, line: &str, timeout: Duration) -> io::Result<Json> {
        let outcome = self.pipeline().and_then(|pipe| pipe.call(line, timeout));
        if let Err(e) = &outcome {
            // A timeout is load, not death: the pipeline stays intact and
            // the reply will be discarded when it lands. Everything else
            // is a broken transport.
            if e.kind() != io::ErrorKind::TimedOut {
                self.mark_down();
            }
        }
        outcome
    }

    /// Health-check: send a `ping`, record the reported `server_id`, and
    /// flip Down → Up on success / Up → Down on failure.
    pub fn check(&self, timeout: Duration) -> bool {
        match self.call("{\"type\":\"ping\"}", timeout) {
            Ok(response) if response.get("ok") == Some(&Json::Bool(true)) => {
                if let Some(id) = response
                    .get("result")
                    .and_then(|r| r.get("server_id"))
                    .and_then(Json::as_str)
                {
                    self.note_server_id(id);
                }
                self.mark_up();
                true
            }
            // A well-formed error response still proves the transport and
            // the process are alive.
            Ok(_) => {
                self.mark_up();
                true
            }
            Err(_) => {
                self.mark_down();
                false
            }
        }
    }

    /// Drop every pooled connection (used at router shutdown so worker
    /// processes see EOF promptly).
    pub fn disconnect(&self) {
        plock(&self.pipes).iter_mut().for_each(|slot| *slot = None);
    }
}
