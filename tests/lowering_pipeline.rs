//! Integration test: the Figure 4/5 lowering pipeline preserves behaviour.
//!
//! The accumulator design (compiled from SystemVerilog by Moore) is
//! simulated in its Behavioural form, then lowered to Structural LLHD and
//! simulated again — with both engines. All four traces must agree.

use llhd::ir::Module;
use llhd::verifier::{module_dialect, verify_module, Dialect};
use llhd_opt::pipeline::{lower_to_structural, LoweringOptions};
use llhd_sim::api::{EngineKind, SimSession};
use llhd_sim::{SimConfig, SimResult};
use llhd_workspace::*;

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
fn behavioural_and_structural_accumulator_traces_match() {
    let module = llhd_designs::accumulator_example().expect("accumulator compiles");
    assert!(verify_module(&module).is_ok());
    assert_eq!(module_dialect(&module), Dialect::Behavioural);

    let mut lowered = module.clone();
    let report = lower_to_structural(&mut lowered, &LoweringOptions::default());
    assert_eq!(report.lowered_processes + report.desequentialized_processes, 2);
    assert!(verify_module(&lowered).is_ok());

    let config = SimConfig::until_nanos(150);
    let behavioural = run(&module, "acc_tb", &config, EngineKind::Interpret);
    let structural = run(&lowered, "acc_tb", &config, EngineKind::Interpret);
    let behavioural_blaze = run(&module, "acc_tb", &config, EngineKind::Compile);
    let structural_blaze = run(&lowered, "acc_tb", &config, EngineKind::Compile);

    assert!(behavioural.trace.equivalent(&structural.trace));
    assert!(behavioural.trace.equivalent(&behavioural_blaze.trace));
    assert!(behavioural.trace.equivalent(&structural_blaze.trace));

    // And the accumulator actually accumulated.
    let final_q = behavioural
        .trace
        .changes_of("q")
        .last()
        .and_then(|e| e.value.to_u64())
        .unwrap_or(0);
    assert!(final_q >= 10, "q reached {}", final_q);
}

#[test]
fn every_design_lowering_is_sound() {
    // For each benchmark design, lowering must keep the module verifiable
    // and must not change simulation behaviour, even when some processes are
    // rejected (testbenches).
    for design in llhd_designs::all_designs() {
        let module = design.build().unwrap();
        let mut lowered = module.clone();
        lower_to_structural(&mut lowered, &LoweringOptions::default());
        verify_module(&lowered)
            .unwrap_or_else(|e| panic!("{} fails to verify after lowering: {:?}", design.name, e));
        let config = SimConfig::until_nanos(design.sim_time_ns(15))
            .with_trace_filter(&[design.probe_signal]);
        let before = run(&module, design.top, &config, EngineKind::Interpret);
        let after = run(&lowered, design.top, &config, EngineKind::Interpret);
        assert!(
            before.trace.equivalent(&after.trace),
            "{}: lowering changed behaviour",
            design.name
        );
    }
}

#[test]
fn lowering_is_a_function_of_its_input() {
    // Every pass iterates in an order fixed by the IR (layout, block and
    // value indices), so repeated lowerings of one module in one process
    // print the same text. Hash-ordered iteration once gave CDC (strobe)
    // four texts over 20 calls.
    let mut modules: Vec<(String, Module)> = llhd_designs::all_designs()
        .into_iter()
        .map(|d| (d.name.to_string(), d.build().unwrap()))
        .collect();
    modules.push((
        "accumulator".to_string(),
        llhd_designs::accumulator_example().expect("accumulator compiles"),
    ));
    for (name, module) in &modules {
        let texts: std::collections::BTreeSet<String> = (0..20)
            .map(|_| {
                let mut lowered = module.clone();
                lower_to_structural(&mut lowered, &LoweringOptions::default());
                llhd::assembly::write_module(&lowered)
            })
            .collect();
        assert_eq!(texts.len(), 1, "{}: {} distinct lowered texts", name, texts.len());
    }
}
