//! LLHD-Blaze, the compiled engine.
//!
//! The paper's LLHD-Blaze translates LLHD into LLVM IR and JIT-compiles it.
//! This reproduction keeps the same pipeline position — LLHD in, fast
//! cycle-accurate simulation out — but replaces the external JIT with an
//! ahead-of-time compilation of every unit into a dense, pre-resolved
//! internal form:
//!
//! * SSA values become numbered **register slots** instead of hash-map
//!   entries, narrow integers among them machine words,
//! * one walk over each unit emits a pre-decoded
//!   [`SuperOp`](superop::SuperOp) per executing instruction — the one
//!   instruction stream from IR to execution,
//! * constants are materialised and folded once at compile time, and
//!   adjacent word ops fuse (compare+branch, compute+drive,
//!   `array`+`mux`),
//! * every instance gets its own copy of its unit's stream with its signal
//!   bindings baked in (functions get one copy each), and one dispatch
//!   loop over those superops runs instance bodies and function calls
//!   alike.
//!
//! The scheduler (event queue, delta cycles, process suspension) is the
//! same event-driven model as the reference interpreter, so the two
//! simulators produce identical traces; only the per-activation execution
//! cost differs. [`EngineKind::Compile`](crate::EngineKind::Compile) and
//! the default `Auto` run a session here.

pub mod compile;
pub mod engine;
pub mod superop;

pub use compile::{compile_design, CompileError, CompiledDesign};
pub use engine::{BlazeExec, BlazeSimulator};
