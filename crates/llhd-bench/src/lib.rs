//! # llhd-bench — regenerating the paper's tables and figures
//!
//! The rows behind the `table2`, `table3`, `table4`, and `figure5`
//! binaries, and [`report`], which renders them. Nothing here compares
//! timings between commits: that is the job of the repo benchmark
//! (`benchmark/`, see "How to measure anything" in the README).

pub mod report;

use llhd::assembly::write_module;
use llhd::bitcode::encode_module;
use llhd::capabilities::{llhd_capabilities, other_ir_capabilities, IrCapabilities};
use llhd::ir::size::module_memory;
use llhd_designs::{all_designs, Design};
use llhd_opt::pipeline::{lower_to_structural, optimize_module, LoweringOptions};
use llhd_sim::api::{EngineKind, SimSession};
use llhd_sim::SimConfig;
use std::time::{Duration, Instant};

/// One row of the Table 2 reproduction.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Design name.
    pub design: String,
    /// Lines of SystemVerilog code of the design under test.
    pub loc: usize,
    /// Simulated clock cycles.
    pub cycles: u64,
    /// Wall-clock time of the reference interpreter (LLHD-Sim).
    pub interpreter: Duration,
    /// Wall-clock time of the compiled simulator (LLHD-Blaze).
    pub blaze: Duration,
    /// Wall-clock time of the baseline: the compiled simulator running on
    /// the cleaned-up (optimized) module, standing in for the commercial
    /// simulator of the paper.
    pub baseline: Duration,
    /// Whether the traces of all three runs are equivalent.
    pub traces_match: bool,
}

impl Table2Row {
    /// Interpreter slowdown relative to the compiled simulator.
    pub fn interpreter_slowdown(&self) -> f64 {
        self.interpreter.as_secs_f64() / self.blaze.as_secs_f64().max(1e-9)
    }

    /// Speedup of the compiled simulator over the baseline (values above 1.0
    /// mean Blaze is faster).
    pub fn blaze_speedup(&self) -> f64 {
        self.baseline.as_secs_f64() / self.blaze.as_secs_f64().max(1e-9)
    }
}

/// Run the Table 2 measurement for one design with the given cycle count:
/// the testbench is built to run that many cycles, so all of them are live.
///
/// # Panics
///
/// Panics if a design fails to build or simulate; that indicates a bug in
/// the design suite rather than a measurement outcome.
pub fn measure_design(design: &Design, cycles: u64) -> Table2Row {
    let module = design.build_for(cycles).expect("design must build");
    let config = SimConfig::until_nanos(design.sim_time_ns(cycles))
        .with_trace_filter(&[design.probe_signal]);
    let run = |module: &llhd::ir::Module, engine: EngineKind| {
        SimSession::builder(module, design.top)
            .engine(engine)
            .config(config.clone())
            .build()
            .expect("session builds")
            .run()
            .expect("simulation runs")
    };

    // One untimed warm-up run per configuration before its sample: the
    // first simulation of a process pays one-off costs (lazy allocator
    // growth, page faults on fresh memory, engine registration) that
    // would otherwise land entirely on whichever engine happens to be
    // measured first and skew the smallest designs by double digits.
    run(&module, EngineKind::Interpret);
    let start = Instant::now();
    let reference = run(&module, EngineKind::Interpret);
    let interpreter = start.elapsed();

    run(&module, EngineKind::Compile);
    let start = Instant::now();
    let blaze_result = run(&module, EngineKind::Compile);
    let blaze = start.elapsed();

    // Baseline: compiled simulation of the cleaned-up module (the stand-in
    // for a mature commercial simulator).
    let mut optimized = module.clone();
    optimize_module(&mut optimized);
    run(&optimized, EngineKind::Compile);
    let start = Instant::now();
    let baseline_result = run(&optimized, EngineKind::Compile);
    let baseline = start.elapsed();

    let traces_match = reference.trace.equivalent(&blaze_result.trace)
        && reference.trace.equivalent(&baseline_result.trace);

    Table2Row {
        design: design.name.to_string(),
        loc: design.sv_lines(),
        cycles,
        interpreter,
        blaze,
        baseline,
        traces_match,
    }
}

/// Produce all rows of the Table 2 reproduction.
pub fn table2_rows(cycles: u64) -> Vec<Table2Row> {
    all_designs()
        .iter()
        .map(|d| measure_design(d, cycles))
        .collect()
}

/// The rows of Table 2 at the paper's per-design cycle counts divided by
/// `scale` (1 = the paper's 1 M–12.6 M cycles).
pub fn table2_rows_scaled(scale: u64) -> Vec<Table2Row> {
    all_designs()
        .iter()
        .map(|d| measure_design(d, (d.paper_cycles / scale.max(1)).max(1)))
        .collect()
}

/// One row of the Table 4 reproduction.
#[derive(Clone, Debug)]
pub struct Table4Row {
    /// Design name.
    pub design: String,
    /// Size of the SystemVerilog source in bytes.
    pub sv_bytes: usize,
    /// Size of the LLHD assembly text in bytes.
    pub text_bytes: usize,
    /// Size of the LLHD bitcode in bytes.
    pub bitcode_bytes: usize,
    /// Estimated in-memory size of the IR in bytes.
    pub in_memory_bytes: usize,
}

/// Produce all rows of the Table 4 reproduction.
pub fn table4_rows() -> Vec<Table4Row> {
    all_designs()
        .iter()
        .map(|design| {
            let module = design.build().expect("design must build");
            Table4Row {
                design: design.name.to_string(),
                sv_bytes: design.sv_bytes(),
                text_bytes: write_module(&module).len(),
                bitcode_bytes: encode_module(&module).len(),
                in_memory_bytes: module_memory(&module).total(),
            }
        })
        .collect()
}

/// The capability matrix of Table 3: LLHD first, then the other IRs.
pub fn table3_rows() -> Vec<IrCapabilities> {
    let mut rows = vec![llhd_capabilities()];
    rows.extend(other_ir_capabilities());
    rows
}

/// The stages of the Figure 5 lowering of the accumulator: behavioural
/// input, and the structural output, as assembly text, plus the lowering
/// report.
pub fn figure5_stages() -> (String, String, llhd_opt::LoweringReport) {
    let module = llhd_designs::accumulator_example().expect("accumulator example");
    let behavioural = write_module(&module);
    let mut lowered = module;
    let report = lower_to_structural(&mut lowered, &LoweringOptions::default());
    (behavioural, write_module(&lowered), report)
}

/// Format a duration in seconds with millisecond resolution.
pub fn fmt_duration(d: Duration) -> String {
    format!("{:8.3}s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_single_design_smoke() {
        let designs = all_designs();
        let row = measure_design(&designs[2], 20);
        assert!(row.traces_match, "traces must match for {}", row.design);
        assert!(row.cycles == 20);
        assert!(row.interpreter > Duration::ZERO);
    }

    #[test]
    fn table4_rows_are_complete_and_ordered() {
        let rows = table4_rows();
        assert_eq!(rows.len(), 10);
        for row in &rows {
            assert!(row.text_bytes > 0);
            assert!(row.bitcode_bytes > 0);
            assert!(
                row.bitcode_bytes < row.text_bytes,
                "{}: bitcode should be denser than text",
                row.design
            );
            assert!(row.in_memory_bytes > row.text_bytes / 2);
        }
    }

    #[test]
    fn table3_has_llhd_first() {
        let rows = table3_rows();
        assert_eq!(rows[0].name, "LLHD");
        assert_eq!(rows.len(), 8);
    }

    #[test]
    fn figure5_lowering_succeeds() {
        let (behavioural, structural, report) = figure5_stages();
        assert!(behavioural.contains("proc @"));
        assert!(report.lowered_processes + report.desequentialized_processes >= 2);
        assert!(structural.contains("reg "));
    }
}
