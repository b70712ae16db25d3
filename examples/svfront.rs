//! Compile SystemVerilog with the Moore frontend, print the emitted
//! Behavioural LLHD, lower it to Structural LLHD, and simulate both to show
//! they behave identically.
//!
//! Run with `cargo run --example svfront`.

use llhd::assembly::write_module;
use llhd::ir::Module;
use llhd::verifier::module_dialect;
use llhd_opt::pipeline::{lower_to_structural, LoweringOptions};
use llhd_sim::{SimConfig, SimResult, SimSession};

/// Simulate through the unified session surface; `EngineKind::Auto` runs
/// the compiled engine.
fn simulate(module: &Module, top: &str, config: &SimConfig) -> SimResult {
    SimSession::builder(module, top)
        .config(config.clone())
        .build()
        .expect("session builds")
        .run()
        .expect("simulation runs")
}

const SOURCE: &str = r#"
module blinker (input clk, output [3:0] count, output led);
  always_ff @(posedge clk) count <= count + 1;
  assign led = count[3];
endmodule

module blinker_tb (output clk, output [3:0] count, output led);
  blinker dut (.clk(clk), .count(count), .led(led));
  initial begin
    repeat (60) begin
      clk <= #1ns 1;
      clk <= #2ns 0;
      #2ns;
    end
  end
endmodule
"#;

fn main() {
    let module = moore::compile(SOURCE).expect("SystemVerilog compiles");
    println!("=== Behavioural LLHD (Moore output) ===\n{}", write_module(&module));
    println!("Dialect: {}", module_dialect(&module));

    let config = SimConfig::until_nanos(130);
    let behavioural = simulate(&module, "blinker_tb", &config);

    let mut lowered = module.clone();
    let report = lower_to_structural(&mut lowered, &LoweringOptions::default());
    println!(
        "Lowered {} processes ({} rejected, typically the testbench stimulus).",
        report.lowered_processes + report.desequentialized_processes,
        report.rejected.len()
    );
    let structural = simulate(&lowered, "blinker_tb", &config);

    assert!(
        behavioural.trace.equivalent(&structural.trace),
        "behavioural and structural traces must match"
    );
    println!(
        "Behavioural and Structural LLHD produce identical traces ({} changes).",
        behavioural.signal_changes
    );
    let toggles = behavioural.trace.changes_of("led").count();
    println!("The LED toggled {} times.", toggles);
}
