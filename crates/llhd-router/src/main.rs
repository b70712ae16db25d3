//! The `llhd-router` binary: a fleet routing tier speaking the same
//! line-delimited JSON protocol as `llhd-server` over stdio (the
//! default) or TCP, consistent-hashing design keys across workers.
//!
//! ```text
//! llhd-router --worker [ID=]ADDR [--worker ...] [--stdio | --tcp ADDR]
//!             [--queue-cap N] [--ping-interval SECS]
//!             [--call-timeout SECS] [--server-id ID]
//!
//!   --worker [ID=]ADDR     a worker to route to (repeatable, at least one;
//!                          e.g. w0=127.0.0.1:7171). Without ID= the address
//!                          doubles as the id. Ids must not contain ':'
//!                          (it delimits routed session ids).
//!   --stdio                requests on stdin, responses on stdout (default)
//!   --tcp ADDR             listen on ADDR (e.g. 127.0.0.1:7070; port 0 = ephemeral)
//!   --queue-cap N          shed requests past N routed jobs in flight with a
//!                          retryable `overloaded` error (default: unbounded)
//!   --ping-interval SECS   health-ping cadence, at least 1 (default 1)
//!   --call-timeout SECS    per-request budget against a worker, at least 1
//!                          (default 120)
//!   --server-id ID         identity reported in the router's own ping/stats
//!                          (default: derived from pid + start time)
//! ```

use llhd_router::{Router, RouterConfig, WorkerSpec};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: llhd-router --worker [ID=]ADDR [--worker ...] [--stdio | --tcp ADDR] [--queue-cap N] [--ping-interval SECS] [--call-timeout SECS] [--server-id ID]"
    );
    std::process::exit(2);
}

/// Parse one `--worker` operand: `[ID=]HOST:PORT`. The split is on the
/// *first* `=`, so addresses stay free to contain anything after it.
fn parse_worker(operand: &str) -> Result<WorkerSpec, String> {
    let (id, addr_text) = match operand.split_once('=') {
        Some((id, addr)) => (id.to_string(), addr),
        None => (operand.to_string(), operand),
    };
    if id.is_empty() {
        return Err(format!("worker {:?} has an empty id", operand));
    }
    if id.contains(':') && operand.contains('=') {
        return Err(format!(
            "worker id {:?} must not contain ':' (it delimits session ids)",
            id
        ));
    }
    let addr: SocketAddr = addr_text
        .to_socket_addrs()
        .map_err(|e| format!("worker address {:?}: {}", addr_text, e))?
        .next()
        .ok_or_else(|| format!("worker address {:?} resolves to nothing", addr_text))?;
    // An address used as the id contains ':'; replace it so session
    // prefixes stay parseable.
    let id = if operand.contains('=') {
        id
    } else {
        id.replace(':', "_")
    };
    Ok(WorkerSpec { id, addr })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut tcp: Option<String> = None;
    let mut config = RouterConfig::default();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--stdio" => {}
            "--tcp" => match argv.get(i + 1) {
                Some(addr) => {
                    tcp = Some(addr.clone());
                    i += 1;
                }
                None => usage(),
            },
            "--worker" => match argv.get(i + 1) {
                Some(operand) => {
                    match parse_worker(operand) {
                        Ok(spec) => config.workers.push(spec),
                        Err(message) => {
                            eprintln!("llhd-router: {}", message);
                            std::process::exit(2);
                        }
                    }
                    i += 1;
                }
                None => usage(),
            },
            "--queue-cap" => match argv.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(n) => {
                    config.queue_cap = Some(n);
                    i += 1;
                }
                None => usage(),
            },
            "--ping-interval" => match argv.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(secs) if secs > 0 => {
                    config.ping_interval = Duration::from_secs(secs);
                    i += 1;
                }
                _ => usage(),
            },
            "--call-timeout" => match argv.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(secs) if secs > 0 => {
                    config.call_timeout = Duration::from_secs(secs);
                    i += 1;
                }
                _ => usage(),
            },
            "--server-id" => match argv.get(i + 1) {
                Some(id) => {
                    config.server_id = Some(id.clone());
                    i += 1;
                }
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("llhd-router: unknown argument {:?}", other);
                usage();
            }
        }
        i += 1;
    }
    if config.workers.is_empty() {
        eprintln!("llhd-router: at least one --worker is required");
        usage();
    }
    {
        let mut ids: Vec<&str> = config.workers.iter().map(|w| w.id.as_str()).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|pair| pair[0] == pair[1]) {
            eprintln!("llhd-router: worker ids must be unique");
            std::process::exit(2);
        }
    }
    let router = Router::new(config);
    let result = match tcp {
        Some(addr) => match TcpListener::bind(&addr) {
            Ok(listener) => {
                // The ephemeral-port form (`:0`) is only useful if the
                // chosen port is announced.
                match listener.local_addr() {
                    Ok(local) => eprintln!("llhd-router: listening on {}", local),
                    Err(_) => eprintln!("llhd-router: listening on {}", addr),
                }
                router.serve_tcp(listener)
            }
            Err(e) => {
                eprintln!("llhd-router: cannot bind {}: {}", addr, e);
                std::process::exit(1);
            }
        },
        None => router.serve_stdio(),
    };
    if let Err(e) = result {
        eprintln!("llhd-router: {}", e);
        std::process::exit(1);
    }
}
