//! Worker connections and the health state machine the router's
//! placement consults.
//!
//! A worker answers each connection's requests strictly in order (one
//! line in, one line out), so a call checks out a connection of its own:
//! an idle one from the worker's pool, or a fresh one. It writes its
//! line, reads the one reply on the calling thread, and returns the
//! connection to the pool. Concurrent calls to one worker therefore run
//! on separate connections, and a health ping never waits behind a
//! running simulation; the worker's own `--queue-cap` bounds how many
//! jobs it takes at once.

use llhd_server::json::Json;
use llhd_server::Client;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How long a fresh connection attempt may take before the worker is
/// treated as unreachable for this call.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(1000);

fn plock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
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

/// One worker: its identity, address, health, and idle connections.
pub struct Worker {
    /// The router-side id (ring placement hashes this).
    pub id: String,
    /// The worker's TCP address.
    pub addr: SocketAddr,
    /// Connections with no request outstanding, ready for the next call.
    idle: Mutex<Vec<Client>>,
    health: Mutex<Health>,
    /// The `server_id` the worker reported on its last successful ping.
    server_id: Mutex<Option<String>>,
    /// Up → Down transitions observed (failed calls or pings).
    pub markdowns: AtomicUsize,
}

impl Worker {
    /// A worker handle; nothing connects until the first call.
    pub fn new(id: String, addr: SocketAddr) -> Worker {
        Worker {
            id,
            addr,
            idle: Mutex::default(),
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

    /// Send one request line to this worker and wait up to `timeout` for
    /// the response, on an idle connection or a fresh one. A timeout
    /// drops only this connection, whose reply is still pending: it is
    /// load, not death. Any other transport failure drops the idle
    /// connections too and marks the worker down (the health ping marks
    /// it back up when it recovers).
    ///
    /// # Errors
    ///
    /// Connection, write, timeout, or response-parse failures.
    pub fn call(&self, line: &str, timeout: Duration) -> io::Result<Json> {
        let idle = plock(&self.idle).pop();
        let mut client = match idle {
            Some(client) => client,
            None => match Client::connect_timeout(self.addr, CONNECT_TIMEOUT) {
                Ok(client) => client,
                Err(e) => {
                    self.mark_down();
                    return Err(e);
                }
            },
        };
        let outcome = client
            .set_timeout(Some(timeout))
            .and_then(|()| client.request(line));
        match &outcome {
            Ok(_) => plock(&self.idle).push(client),
            Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
            Err(_) => {
                self.disconnect();
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

    /// Drop every idle connection (also at router shutdown, so worker
    /// processes see EOF promptly).
    pub fn disconnect(&self) {
        plock(&self.idle).clear();
    }
}
