//! # llhd-sim — the LLHD simulators
//!
//! An event-driven interpreter for LLHD designs, deliberately built as the
//! simplest possible simulator of the instruction set (§6.1 of the paper).
//! It supports all three dialects: Behavioural processes (including
//! testbenches with waits, variables, and function calls), Structural
//! entities with `reg` storage elements, and Netlist entities.
//!
//! It also holds the compiled engine, [`blaze`] (the paper's
//! LLHD-Blaze), which the default [`EngineKind::Auto`] runs on.
//!
//! The engine-agnostic entry point is [`api::SimSession`]: it owns
//! elaboration, engine selection (this interpreter or [`blaze`]), run
//! limits, and trace configuration in one place:
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
//! [`engine::Interp`] executor — interprets it, or a
//! [`blaze::BlazeSimulator`] — the same loop over blaze's executor — runs
//! it compiled.

pub mod api;
pub mod blaze;
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

#[cfg(test)]
mod tests {
    use crate::api::SimSession;
    use crate::SimConfig;
    use llhd::assembly::parse_module;

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
        let reference = SimSession::builder(&module, "acc_tb")
            .engine(crate::EngineKind::Interpret)
            .config(config.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        let blaze = SimSession::builder(&module, "acc_tb")
            .engine(crate::EngineKind::Compile)
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
