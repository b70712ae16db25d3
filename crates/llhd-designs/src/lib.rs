//! # llhd-designs — the benchmark designs of the LLHD paper evaluation
//!
//! The paper evaluates LLHD on ten open-source SystemVerilog designs ranging
//! from small arithmetic blocks to a RISC-V core (Table 2). This crate
//! re-implements functionally equivalent versions of each design together
//! with a self-contained testbench, so the simulation-performance (Table 2)
//! and size-efficiency (Table 4) experiments can be regenerated.
//!
//! Each [`Design`] carries:
//! * the SystemVerilog source of the DUT (the design under test) as the
//!   paper's notion of the "input" artifact,
//! * the Behavioural LLHD of DUT plus testbench (either compiled from the
//!   SystemVerilog through [`moore`] or emitted directly in LLHD assembly
//!   for constructs outside the frontend subset),
//! * the name of the top-level testbench unit and the nominal clock period.
//!
//! ```
//! let designs = llhd_designs::all_designs();
//! assert_eq!(designs.len(), 10);
//! let module = designs[0].build().unwrap();
//! assert!(llhd::verifier::verify_module(&module).is_ok());
//! ```

use llhd::assembly::parse_module;
use llhd::ir::Module;

mod sources;

pub mod generate;
pub use generate::{fir_bank, noc_mesh, parallel_corpus, GeneratedDesign};

/// How the LLHD for a design is produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Frontend {
    /// Compiled from SystemVerilog by the `moore` frontend.
    Moore,
    /// Hand-written Behavioural LLHD assembly (constructs outside the
    /// frontend subset, e.g. multi-dimensional state).
    Assembly,
}

/// The clock cycles a Moore testbench runs as written in its source.
pub const TESTBENCH_CYCLES: u64 = 200;

/// The loop header of a Moore testbench running `cycles` clock cycles;
/// every Moore source holds the one for [`TESTBENCH_CYCLES`] exactly once.
fn testbench_repeat(cycles: u64) -> String {
    format!("repeat ({})", cycles)
}

/// One benchmark design plus its testbench.
#[derive(Clone, Debug)]
pub struct Design {
    /// The short name used in Table 2 / Table 4.
    pub name: &'static str,
    /// The SystemVerilog source of the design under test.
    pub sv_source: &'static str,
    /// The LLHD assembly of DUT and testbench (empty when the design goes
    /// through the Moore frontend).
    pub llhd_source: &'static str,
    /// How [`Design::build`] produces the module.
    pub frontend: Frontend,
    /// The name of the top-level testbench unit.
    pub top: &'static str,
    /// The nominal clock period in nanoseconds.
    pub clock_period_ns: u128,
    /// The number of simulated clock cycles the paper used.
    pub paper_cycles: u64,
    /// A signal (name suffix) whose activity indicates the design is alive;
    /// used by smoke tests and trace comparisons.
    pub probe_signal: &'static str,
}

impl Design {
    /// Build the Behavioural LLHD module for this design, with the
    /// testbench running [`TESTBENCH_CYCLES`] clock cycles.
    ///
    /// # Errors
    ///
    /// Returns an error string if the frontend or the assembler rejects the
    /// source (which would indicate a bug in this crate).
    pub fn build(&self) -> Result<Module, String> {
        self.build_for(TESTBENCH_CYCLES)
    }

    /// Build the module with a testbench that runs `cycles` clock cycles:
    /// the `repeat` count of a Moore testbench is substituted in the source
    /// text. The hand-written Assembly testbenches free-run and ignore it.
    ///
    /// # Errors
    ///
    /// As [`Design::build`].
    pub fn build_for(&self, cycles: u64) -> Result<Module, String> {
        match self.frontend {
            Frontend::Moore => {
                let source = self.sv_source.replace(
                    &testbench_repeat(TESTBENCH_CYCLES),
                    &testbench_repeat(cycles),
                );
                moore::compile(&source).map_err(|e| e.to_string())
            }
            Frontend::Assembly => parse_module(self.llhd_source).map_err(|e| e.to_string()),
        }
    }

    /// The simulation end time (in nanoseconds) for a given cycle count.
    pub fn sim_time_ns(&self, cycles: u64) -> u128 {
        self.clock_period_ns * cycles as u128 + 10
    }

    /// Lines of SystemVerilog code of the design under test (excluding blank
    /// lines), reported as "LoC" in Table 2.
    pub fn sv_lines(&self) -> usize {
        self.sv_source
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count()
    }

    /// Size of the SystemVerilog source in bytes, reported in Table 4.
    pub fn sv_bytes(&self) -> usize {
        self.sv_source.len()
    }
}

/// All ten designs of the evaluation, in Table 2 order.
pub fn all_designs() -> Vec<Design> {
    vec![
        sources::gray(),
        sources::fir(),
        sources::lfsr(),
        sources::lzc(),
        sources::fifo(),
        sources::cdc_gray(),
        sources::cdc_strobe(),
        sources::rr_arbiter(),
        sources::stream_delayer(),
        sources::riscv_core(),
    ]
}

/// Look up a design by name.
pub fn design_by_name(name: &str) -> Option<Design> {
    all_designs().into_iter().find(|d| d.name == name)
}

/// The accumulator running example of the paper (Figure 2/3/5), built from
/// its SystemVerilog source through the Moore frontend.
pub fn accumulator_example() -> Result<Module, String> {
    moore::compile(sources::ACC_SV).map_err(|e| e.to_string())
}

/// The SystemVerilog source of the accumulator running example (Figure 3).
pub fn accumulator_source() -> &'static str {
    sources::ACC_SV
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd_sim::api::{EngineKind, SimSession};
    use llhd_sim::{SimConfig, SimResult};

    fn run(module: &Module, top: &str, config: &SimConfig, engine: EngineKind) -> SimResult {
        llhd_blaze::register();
        SimSession::builder(module, top)
            .engine(engine)
            .config(config.clone())
            .build()
            .expect("session builds")
            .run()
            .expect("simulation runs")
    }

    #[test]
    fn all_designs_build_and_verify() {
        for design in all_designs() {
            let module = design
                .build()
                .unwrap_or_else(|e| panic!("{} failed to build: {}", design.name, e));
            llhd::verifier::verify_module(&module)
                .unwrap_or_else(|e| panic!("{} failed to verify: {:?}", design.name, e));
            assert!(design.sv_lines() > 3, "{} has no SV source", design.name);
        }
    }

    #[test]
    fn all_designs_simulate_and_produce_activity() {
        for design in all_designs() {
            let module = design.build().unwrap();
            let config = SimConfig::until_nanos(design.sim_time_ns(30))
                .with_trace_filter(&[design.probe_signal]);
            let result = run(&module, design.top, &config, EngineKind::Interpret);
            assert!(
                result.trace.changes_of(design.probe_signal).count() > 0,
                "{}: no activity on probe signal {}",
                design.name,
                design.probe_signal
            );
        }
    }

    #[test]
    fn interpreter_and_blaze_traces_match_for_every_design() {
        for design in all_designs() {
            let module = design.build().unwrap();
            let config = SimConfig::until_nanos(design.sim_time_ns(20));
            let reference = run(&module, design.top, &config, EngineKind::Interpret);
            let blaze = run(&module, design.top, &config, EngineKind::Compile);
            assert!(
                reference.trace.equivalent(&blaze.trace),
                "{}: traces diverge",
                design.name
            );
        }
    }

    fn module_insts(module: &Module) -> usize {
        module
            .units()
            .into_iter()
            .map(|id| module.unit(id).num_total_insts())
            .sum()
    }

    /// Size pin: a testbench loop is a loop. An unrolled `repeat (200)`
    /// would put every one of these in the thousands.
    #[test]
    fn moore_designs_stay_small() {
        for design in all_designs() {
            if design.frontend != Frontend::Moore {
                continue;
            }
            let insts = module_insts(&design.build().unwrap());
            assert!(insts < 400, "{}: {} instructions", design.name, insts);
            // The cycle count is data, not code.
            assert_eq!(insts, module_insts(&design.build_for(1_000_000).unwrap()));
        }
    }

    #[test]
    fn build_for_sets_the_testbench_length() {
        for design in all_designs() {
            let changes = |cycles: u64| {
                let module = design.build_for(cycles).unwrap();
                let config = SimConfig::until_nanos(design.sim_time_ns(400)).without_trace();
                run(&module, design.top, &config, EngineKind::Compile).signal_changes
            };
            match design.frontend {
                Frontend::Moore => {
                    let header = testbench_repeat(TESTBENCH_CYCLES);
                    assert_eq!(design.sv_source.matches(&header).count(), 1);
                    assert!(changes(300) > changes(TESTBENCH_CYCLES), "{}", design.name);
                    // Also pins that compiling one source twice gives
                    // one text (design keys hash the module's content).
                    let default = design.build().unwrap();
                    let explicit = design.build_for(TESTBENCH_CYCLES).unwrap();
                    assert_eq!(
                        llhd::assembly::write_module(&default),
                        llhd::assembly::write_module(&explicit)
                    );
                }
                Frontend::Assembly => assert_eq!(changes(300), changes(TESTBENCH_CYCLES)),
            }
        }
    }

    /// The paper's Table 2 runs 1 M–12.6 M cycles per design; a looped
    /// testbench reaches that. Release-weight, so `ci.sh` runs it.
    #[test]
    #[ignore]
    fn million_cycle_runs_agree_across_engines() {
        let cycles = 1_000_000;
        for design in all_designs() {
            let module = design.build_for(cycles).unwrap();
            let config = SimConfig::until_nanos(design.sim_time_ns(cycles)).without_trace();
            let reference = run(&module, design.top, &config, EngineKind::Interpret);
            let blaze = run(&module, design.top, &config, EngineKind::Compile);
            assert!(
                reference.signal_changes as u64 > cycles,
                "{}: stopped early with {} changes",
                design.name,
                reference.signal_changes
            );
            assert_eq!(
                reference.signal_changes, blaze.signal_changes,
                "{}",
                design.name
            );
            assert_eq!(reference.end_time, blaze.end_time, "{}", design.name);
        }
    }

    #[test]
    fn accumulator_example_builds() {
        let module = accumulator_example().unwrap();
        assert!(module.unit_by_ident("acc").is_some());
        assert!(module.unit_by_ident("acc_tb").is_some());
    }

    #[test]
    fn design_lookup() {
        assert!(design_by_name("LFSR").is_some());
        assert!(design_by_name("missing").is_none());
        assert_eq!(all_designs().len(), 10);
    }
}
