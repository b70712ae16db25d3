//! # llhd-server — a persistent simulation server
//!
//! The ROADMAP's scale-out story: instead of paying elaboration and
//! ahead-of-time compilation per `cargo run`, a long-running process
//! holds one warmed [`DesignCache`](llhd_sim::api::DesignCache) and
//! answers simulation requests over a line-delimited JSON protocol —
//! on TCP (many concurrent clients) or stdio (one pipeline). Repeat
//! requests for a resident design skip parsing, elaboration, *and*
//! compilation: engine instantiation over a cached design is a
//! reference-count bump plus a register-file clone.
//!
//! The protocol is specified in `docs/PROTOCOL.md` (version:
//! [`protocol::PROTOCOL_VERSION`]); where the server sits in the overall
//! system is drawn in `ARCHITECTURE.md`. Quick taste — one request and
//! response per line:
//!
//! ```text
//! → {"type":"sim","source":"proc @blink ...","top":"blink","until_ns":100}
//! ← {"v":1,"ok":true,"result":{"design":"29c1…","engine":"auto","end_time_fs":100000000,…}}
//! → {"type":"sim","design":"29c1…","top":"blink","until_ns":200}
//! ← {"v":1,"ok":true,"result":{…}}                  (no re-parse, no re-compile)
//! → {"type":"stats"}
//! ← {"v":1,"ok":true,"result":{"cache":{"elaborate_hits":1,…}}}
//! ```
//!
//! In-process use (what the tests and the `server/throughput` benchmark
//! do) spawns the server on an ephemeral port and talks to it through
//! [`Client`]:
//!
//! ```
//! use llhd_server::{json::Json, Client, Server, ServerConfig};
//!
//! let running = Server::spawn_tcp(ServerConfig::default(), "127.0.0.1:0").unwrap();
//! let mut client = Client::connect(running.addr()).unwrap();
//! let pong = client.request(&Json::parse(r#"{"type":"ping"}"#).unwrap()).unwrap();
//! assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
//! client.request(&Json::parse(r#"{"type":"shutdown"}"#).unwrap()).unwrap();
//! running.join().unwrap();
//! ```

pub mod admission;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod front;
pub mod json;
pub mod protocol;
pub mod retry;
pub mod server;
pub mod wire;

pub use protocol::{ErrorKind, ProtoError, Request, SimJobSpec, TraceMode, PROTOCOL_VERSION};
pub use server::{Client, RunningServer, Server, ServerConfig, ServerState};
pub use wire::{LineReader, MAX_LINE_BYTES};
