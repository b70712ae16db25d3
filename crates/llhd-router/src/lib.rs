//! # llhd-router: a fleet tier over `llhd-server` workers
//!
//! A standalone routing tier that speaks the same line-delimited JSON
//! protocol v1 as [`llhd-server`](llhd_server) and fans requests out
//! across a fleet of workers:
//!
//! - **Placement** is a consistent-hash ring over worker *ids* keyed by
//!   the request's design key (inline-source requests hash the source
//!   text); batches are split per worker and the per-job results merged
//!   back in request order ([`ring`]).
//! - **Connections**: each worker call checks out a plain connection of
//!   its own (an idle one, or a fresh one) and reads the reply on the
//!   calling thread; a health thread pings every worker and marks it
//!   down/up, re-placing its keys on the next ring candidate while it is
//!   out ([`pool`]).
//! - **Retries**: a worker-reported retryable error (`overloaded`,
//!   `shutdown`) or a broken transport is retried exactly once on the
//!   next ring candidate; non-retryable errors pass through untouched.
//!   The router adds its own `--queue-cap` admission control with the
//!   same `retry_after_ms` hint contract as the workers ([`router`]).
//! - **Sticky sessions**: `session.create`/`session.restore` place like
//!   sims, and the returned session id is prefixed with the worker id
//!   (`w0:s1`) so every later `session.*` command routes back to the
//!   owning worker. Migration is `session.checkpoint` on one worker +
//!   `session.restore` through the router, which is free to place the
//!   restored session on any healthy worker.
//! - **Stats rollup**: `stats` returns the router's own counters
//!   (routed/retried/shed/markdowns) plus each worker's `stats` payload
//!   keyed by its self-reported `server_id`.
//!
//! Clients need no changes: anything that speaks protocol v1 to a
//! worker can point at the router instead. The router is also itself a
//! protocol-v1 server — it runs the server's own front end
//! ([`llhd_server::front`]) — so routers could in principle stack
//! (though one tier is the intended shape).

pub mod pool;
pub mod ring;
pub mod router;

pub use pool::{Health, Worker};
pub use ring::{source_key, Ring};
pub use router::{Router, RouterConfig, RouterState, RunningRouter, WorkerSpec};
