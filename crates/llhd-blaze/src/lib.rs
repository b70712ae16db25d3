//! # llhd-blaze — an accelerated LLHD simulator
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
//! The scheduler (event queue, delta cycles, process suspension) is the same
//! event-driven model as the reference interpreter, so the two simulators
//! produce identical traces; only the per-activation execution cost differs.

pub mod compile;
pub mod engine;
pub mod superop;

pub use compile::{compile_design, CompileError, CompiledDesign};
#[doc(hidden)]
pub use compile::{compile_design_with, BlazeOptions};
pub use engine::{BlazeExec, BlazeSimulator};

use llhd::ir::Module;
use llhd_sim::api::{
    self, CompileBackend, CompiledArtifact, Engine, Error, SessionBuilder, SimSession,
};
use std::sync::Arc;

/// Install this crate as the compile backend of the unified session API,
/// so [`llhd_sim::api::EngineKind::Compile`] (and `Auto`) resolves to the
/// blaze engine. Idempotent and cheap — call it once at
/// startup, or go through [`session`], which calls it for you.
///
/// ```
/// use llhd_sim::api::{compile_backend, EngineKind, SimSession};
///
/// llhd_blaze::register();
/// assert_eq!(compile_backend().map(|b| b.name), Some("blaze"));
/// let module = llhd::assembly::parse_module(
///     "entity @top () -> () {
///         %zero = const i8 0
///         %q = sig i8 %zero
///     }",
/// )
/// .unwrap();
/// let session = SimSession::builder(&module, "top")
///     .engine(EngineKind::Compile)
///     .build()
///     .unwrap();
/// assert_eq!(session.engine_name(), "blaze");
/// ```
pub fn register() {
    api::register_compile_backend(CompileBackend {
        name: "blaze",
        compile: |module, design| {
            compile_design(module, design)
                .map(|compiled| Arc::new(compiled) as CompiledArtifact)
                .map_err(|e| Error::Compile(e.0))
        },
        instantiate: |artifact, config| {
            let compiled = Arc::clone(artifact)
                .downcast::<CompiledDesign>()
                .map_err(|_| {
                    Error::Compile("cached artifact is not a blaze CompiledDesign".to_string())
                })?;
            Ok(Box::new(BlazeSimulator::new(compiled, config.clone()).into_driver()) as Box<dyn Engine>)
        },
        artifact_bytes: |artifact| {
            artifact
                .downcast_ref::<CompiledDesign>()
                .map(CompiledDesign::approx_bytes)
                .unwrap_or(0)
        },
        artifact_stats: |artifact| {
            artifact
                .downcast_ref::<CompiledDesign>()
                .map(CompiledDesign::unit_stats)
                .unwrap_or_default()
        },
    });
}

/// Start configuring a [`SimSession`] with the blaze backend registered:
/// the one-stop entry point for consumers that want both engines
/// available behind [`llhd_sim::api::EngineKind`].
///
/// ```
/// let module = llhd::assembly::parse_module(
///     "proc @pulse () -> (i1$ %q) {
///     entry:
///         %on = const i1 1
///         %t = const time 2ns
///         drv i1$ %q, %on after %t
///         halt
///     }",
/// )
/// .unwrap();
/// // Engine selection defaults to Auto, which compiles on the
/// // registered blaze backend.
/// let result = llhd_blaze::session(&module, "pulse")
///     .until_nanos(10)
///     .build()
///     .unwrap()
///     .run()
///     .unwrap();
/// assert_eq!(result.trace.changes_of("q").count(), 1);
/// ```
pub fn session<'m>(module: &'m Module, top: &'m str) -> SessionBuilder<'m> {
    register();
    SimSession::builder(module, top)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd::assembly::parse_module;
    use llhd_sim::SimConfig;

    /// The accumulator design of the paper (Figure 2/3/5) with a reduced
    /// iteration count, simulated by both engines; the traces must match.
    #[test]
    fn blaze_and_reference_traces_match() {
        let module = parse_module(
            r#"
            entity @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %q) {
                %clkp = prb i1$ %clk
                %dp = prb i32$ %d
                reg i32$ %q, %dp rise %clkp
            }
            entity @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d) {
                %qp = prb i32$ %q
                %xp = prb i32$ %x
                %enp = prb i1$ %en
                %sum = add i32 %qp, %xp
                %dns = array [%qp, %sum]
                %dn = mux [2 x i32] %dns, %enp
                %delay = const time 0s
                drv i32$ %d, %dn after %delay
            }
            entity @acc (i1$ %clk, i32$ %x, i1$ %en) -> (i32$ %q) {
                %zero = const i32 0
                %d = sig i32 %zero
                inst @acc_ff (%clk, %d) -> (%q)
                inst @acc_comb (%q, %x, %en) -> (%d)
            }
            proc @acc_tb_initial (i32$ %q) -> (i1$ %clk, i32$ %x, i1$ %en) {
            entry:
                %bit0 = const i1 0
                %bit1 = const i1 1
                %zero = const i32 0
                %one = const i32 1
                %many = const i32 20
                %del1ns = const time 1ns
                %del2ns = const time 2ns
                %i = var i32 %zero
                drv i1$ %en, %bit1 after %del2ns
                br %loop
            loop:
                %ip = ld i32* %i
                drv i32$ %x, %ip after %del2ns
                drv i1$ %clk, %bit1 after %del1ns
                drv i1$ %clk, %bit0 after %del2ns
                wait %next for %del2ns
            next:
                %in = add i32 %ip, %one
                st i32* %i, %in
                %cont = ult i32 %ip, %many
                br %cont, %end, %loop
            end:
                halt
            }
            entity @acc_tb () -> () {
                %zero0 = const i1 0
                %zero1 = const i32 0
                %clk = sig i1 %zero0
                %en = sig i1 %zero0
                %x = sig i32 %zero1
                %q = sig i32 %zero1
                inst @acc (%clk, %x, %en) -> (%q)
                inst @acc_tb_initial (%q) -> (%clk, %x, %en)
            }
            "#,
        )
        .unwrap();
        let config = SimConfig::until_nanos(200);
        let reference = session(&module, "acc_tb")
            .engine(llhd_sim::EngineKind::Interpret)
            .config(config.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        let blaze = session(&module, "acc_tb")
            .engine(llhd_sim::EngineKind::Compile)
            .config(config.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(
            reference.trace.equivalent(&blaze.trace),
            "traces diverge:\nreference: {:?}\nblaze: {:?}",
            reference.trace.canonical(),
            blaze.trace.canonical()
        );
        // The accumulator accumulates: q must keep growing.
        let q_changes: Vec<_> = blaze.trace.changes_of("q").collect();
        assert!(q_changes.len() > 5);
    }
}
