//! # moore — a SystemVerilog-subset compiler frontend for LLHD
//!
//! The paper's Moore compiler maps SystemVerilog and VHDL to Behavioural
//! LLHD (§3). This crate implements the SystemVerilog subset needed for the
//! designs and testbenches of the evaluation:
//!
//! * modules with ANSI port lists (`input`/`output`, `logic`/`bit`/`wire`
//!   with packed ranges),
//! * internal net/variable declarations,
//! * continuous assignments (`assign`),
//! * `always_ff @(posedge clk)` blocks with non-blocking assignments and
//!   `if`/`else`,
//! * `always_comb` blocks with blocking assignments and `if`/`else`,
//! * `initial` blocks with delays (`#5ns`), assignments and `repeat (n)`
//!   loops (testbenches); a `repeat` becomes a counted loop in the process's
//!   CFG, nested for nested loops, so the output's size does not depend on
//!   the count,
//! * module instantiation with named or positional connections,
//! * the usual expression operators, literals (`8'hff`, `'b1010`, decimal),
//!   and the conditional operator.
//!
//! Mapping follows §3 of the paper: modules become entities, `always` blocks
//! become processes, and the generated IR is deliberately unoptimized
//! (comparable to `-O0`), leaving cleanup to the `llhd-opt` passes.
//!
//! ```
//! let module = moore::compile(r#"
//! module inverter (input logic a, output logic q);
//!   assign q = ~a;
//! endmodule
//! "#).unwrap();
//! assert!(module.unit_by_ident("inverter").is_some());
//! ```

mod ast;
mod codegen;
mod lexer;
mod parser;

pub use ast::*;
pub use codegen::compile_ast;
pub use parser::parse;

use llhd::ir::Module;
use std::fmt;

/// An error produced by the frontend.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompileError {
    /// The 1-based source line.
    pub line: usize,
    /// A description of the problem.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CompileError {}

/// Compile SystemVerilog source text into an LLHD module.
///
/// # Errors
///
/// Returns a [`CompileError`] describing the first syntax or semantic
/// problem.
pub fn compile(source: &str) -> Result<Module, CompileError> {
    let ast = parse(source)?;
    compile_ast(&ast)
}
