//! # llhd-blaze — a façade over [`llhd_sim::blaze`]
//!
//! The compiled engine lives in `llhd-sim` as [`llhd_sim::blaze`], and
//! `EngineKind::Auto` runs on it in every process. This crate only
//! re-exports it under its old paths for the `benchmark/` package, which
//! still names them; it goes once that package imports `llhd_sim::blaze`.

#[doc(hidden)]
pub use llhd_sim::blaze::compile::{compile_design_with, BlazeOptions};
pub use llhd_sim::blaze::{
    compile, compile_design, engine, superop, BlazeExec, BlazeSimulator, CompileError,
    CompiledDesign,
};

/// Does nothing: `Auto` compiles without registration. Kept because the
/// `benchmark/` package still calls it.
#[doc(hidden)]
pub fn register() {}
