//! The `llhd-server` binary: a persistent simulation server speaking the
//! line-delimited JSON protocol of `docs/PROTOCOL.md` over stdio (the
//! default) or TCP.
//!
//! ```text
//! llhd-server [--stdio | --tcp ADDR] [--capacity N] [--stats-interval SECS]
//!             [--session-cap N] [--session-idle SECS] [--queue-cap N]
//!             [--drain-deadline SECS] [--server-id ID]
//!
//!   --stdio                requests on stdin, responses on stdout (default)
//!   --tcp ADDR             listen on ADDR (e.g. 127.0.0.1:7171; port 0 = ephemeral)
//!   --capacity N           cache at most N designs, LRU-evicted (default: unbounded)
//!   --stats-interval SECS  log a stats line to stderr every SECS seconds
//!                          (default 30; 0 disables)
//!   --session-cap N        allow at most N open interactive sessions (default 64)
//!   --session-idle SECS    expire sessions idle for SECS seconds (default 600;
//!                          checked on touch, session.create and stats)
//!   --queue-cap N          shed jobs past N in flight (admitted, not yet
//!                          answered) with a retryable `overloaded` error
//!                          (default: unbounded)
//!   --drain-deadline SECS  on a TCP shutdown, wait at most SECS seconds for
//!                          in-flight jobs, then exit; their clients see the
//!                          connection close (default 30)
//!   --server-id ID         identity reported in ping/stats responses
//!                          (default: derived from pid + start time)
//! ```
//!
//! With the `fault-injection` feature compiled in, the `LLHD_FAULT_PLAN`
//! environment variable (e.g. `seed=42,sim.panic=16,io.read.error=4`)
//! arms the deterministic chaos harness.

use llhd_server::{Server, ServerConfig};
use std::net::TcpListener;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: llhd-server [--stdio | --tcp ADDR] [--capacity N] [--stats-interval SECS] [--session-cap N] [--session-idle SECS] [--queue-cap N] [--drain-deadline SECS] [--server-id ID]"
    );
    std::process::exit(2);
}

/// Arm the fault plan from `LLHD_FAULT_PLAN` when the harness is
/// compiled in; reject the variable otherwise, rather than silently
/// serving without the faults the operator asked for.
fn fault_plan_from_env(config: &mut ServerConfig) {
    let spec = match std::env::var("LLHD_FAULT_PLAN") {
        Ok(spec) if !spec.trim().is_empty() => spec,
        _ => return,
    };
    #[cfg(feature = "fault-injection")]
    {
        match llhd_server::fault::FaultPlan::parse(&spec) {
            Ok(plan) => {
                eprintln!("llhd-server: fault injection armed ({:?})", plan);
                config.fault_plan = Some(std::sync::Arc::new(plan));
            }
            Err(e) => {
                eprintln!("llhd-server: bad LLHD_FAULT_PLAN: {}", e);
                std::process::exit(2);
            }
        }
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = config;
        eprintln!(
            "llhd-server: LLHD_FAULT_PLAN={:?} set, but this binary was built without the fault-injection feature",
            spec
        );
        std::process::exit(2);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut tcp: Option<String> = None;
    let mut capacity: Option<usize> = None;
    let mut stats_secs: u64 = 30;
    let mut session_cap: Option<usize> = None;
    let mut session_idle: Option<u64> = None;
    let mut queue_cap: Option<usize> = None;
    let mut drain_deadline: Option<u64> = None;
    let mut server_id: Option<String> = None;
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
            "--capacity" => match argv.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(n) => {
                    capacity = Some(n);
                    i += 1;
                }
                None => usage(),
            },
            "--stats-interval" => match argv.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(secs) => {
                    stats_secs = secs;
                    i += 1;
                }
                None => usage(),
            },
            "--session-cap" => match argv.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(n) => {
                    session_cap = Some(n);
                    i += 1;
                }
                None => usage(),
            },
            "--session-idle" => match argv.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(secs) => {
                    session_idle = Some(secs);
                    i += 1;
                }
                None => usage(),
            },
            "--queue-cap" => match argv.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(n) => {
                    queue_cap = Some(n);
                    i += 1;
                }
                None => usage(),
            },
            "--drain-deadline" => match argv.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(secs) => {
                    drain_deadline = Some(secs);
                    i += 1;
                }
                None => usage(),
            },
            "--server-id" => match argv.get(i + 1) {
                Some(id) => {
                    server_id = Some(id.clone());
                    i += 1;
                }
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("llhd-server: unknown argument {:?}", other);
                usage();
            }
        }
        i += 1;
    }
    // The struct update is only "needless" without the fault-injection
    // feature; with it, the literal doesn't cover `fault_plan`.
    #[allow(clippy::needless_update)]
    let mut config = ServerConfig {
        cache_capacity: capacity,
        stats_interval: match stats_secs {
            0 => None,
            secs => Some(Duration::from_secs(secs)),
        },
        session_cap,
        session_idle_timeout: session_idle.map(Duration::from_secs),
        queue_cap,
        drain_deadline: drain_deadline.map(Duration::from_secs),
        server_id,
        ..ServerConfig::default()
    };
    fault_plan_from_env(&mut config);
    let server = Server::new(config);
    let result = match tcp {
        Some(addr) => match TcpListener::bind(&addr) {
            Ok(listener) => {
                // The ephemeral-port form (`:0`) is only useful if the
                // chosen port is announced.
                match listener.local_addr() {
                    Ok(local) => eprintln!("llhd-server: listening on {}", local),
                    Err(_) => eprintln!("llhd-server: listening on {}", addr),
                }
                server.serve_tcp(listener)
            }
            Err(e) => {
                eprintln!("llhd-server: cannot bind {}: {}", addr, e);
                std::process::exit(1);
            }
        },
        None => server.serve_stdio(),
    };
    if let Err(e) = result {
        eprintln!("llhd-server: {}", e);
        std::process::exit(1);
    }
}
