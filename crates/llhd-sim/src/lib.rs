//! # llhd-sim — the LLHD reference simulator
//!
//! An event-driven interpreter for LLHD designs, deliberately built as the
//! simplest possible simulator of the instruction set (§6.1 of the paper).
//! It supports all three dialects: Behavioural processes (including
//! testbenches with waits, variables, and function calls), Structural
//! entities with `reg` storage elements, and Netlist entities.
//!
//! The engine-agnostic entry point is [`api::SimSession`]: it owns
//! elaboration, engine selection (this interpreter or the compiled
//! `llhd-blaze` engine), run limits, and trace configuration in one place:
//!
//! ```
//! use llhd::assembly::parse_module;
//! use llhd_sim::api::SimSession;
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
//!     .until_nanos(100)
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(result.trace.changes_of("led").count() >= 18);
//! ```
//!
//! Underneath, [`design::elaborate`] flattens a [`llhd::ir::Module`]
//! into signals + unit instances, and an [`engine::Simulator`] — the
//! shared [`driver::Driver`] run loop over the interpreter's
//! [`engine::Interp`] executor — interprets it.

pub mod api;
pub mod design;
pub mod driver;
pub mod engine;
pub mod islands;
pub mod query;
pub mod sched;
pub mod trace;

pub use api::{BatchJob, DesignCache, EngineKind, EngineState, SimSession};
pub use design::{elaborate, ElaborateError, ElaboratedDesign, SignalId};
pub use driver::{Driver, Executor, MAX_CALL_DEPTH};
pub use engine::{RunControl, SimConfig, SimError, SimResult, Simulator};
pub use islands::{IslandInfo, IslandPlan};
pub use query::DesignQuery;
pub use sched::{EventQueue, SchedCore};
pub use trace::{Trace, TraceEvent};
