//! Differential testing of the two simulation engines.
//!
//! Both engines run on the shared scheduling core in `llhd_sim::sched`,
//! so their behaviour must agree not just up to delta-step reordering
//! (the `equivalent` check the library tests already do) but **exactly**:
//! the same value changes, at the same `(time, delta, epsilon)` instants,
//! in the same order, under the same names. Any divergence — typically
//! introduced by a scheduler refactor that changes activation order in
//! one engine only — fails here immediately, on every benchmark design.
//!
//! Both engines are driven through the one public surface,
//! [`SimSession`]: the engine is the only thing that differs between the
//! two runs of each design.

use llhd::ir::Module;
use llhd_designs::all_designs;
use llhd_sim::api::{EngineKind, SimSession};
use llhd_sim::{SimConfig, SimResult};

fn run(module: &Module, top: &str, config: &SimConfig, engine: EngineKind) -> SimResult {
    SimSession::builder(module, top)
        .engine(engine)
        .config(config.clone())
        .build()
        .expect("session builds")
        .run()
        .expect("simulation runs")
}

/// Every design, through both engines, with full tracing: the traces must
/// be byte-identical.
#[test]
fn interpreter_and_blaze_traces_are_byte_identical() {
    for design in all_designs() {
        let module = design.build().unwrap();
        let config = SimConfig::until_nanos(design.sim_time_ns(25));
        let reference = run(&module, design.top, &config, EngineKind::Interpret);
        let blaze = run(&module, design.top, &config, EngineKind::Compile);
        assert_eq!(
            reference.trace.events(),
            blaze.trace.events(),
            "{}: traces are not byte-identical",
            design.name
        );
        // The VCD serialization of both traces must match byte for byte
        // as well (same identifier assignment, same timestamps).
        assert_eq!(
            reference.trace.to_vcd("1fs"),
            blaze.trace.to_vcd("1fs"),
            "{}: VCD output diverges",
            design.name
        );
        // And the scheduler-visible statistics must line up exactly.
        assert_eq!(
            reference.signal_changes, blaze.signal_changes,
            "{}: signal change counts diverge",
            design.name
        );
        assert_eq!(
            reference.end_time, blaze.end_time,
            "{}: end times diverge",
            design.name
        );
        assert_eq!(
            reference.assertions_checked, blaze.assertions_checked,
            "{}: assertion counts diverge",
            design.name
        );
    }
}

/// Determinism within one engine: two runs of the same design produce the
/// identical trace (no hash-iteration or allocation-order dependence).
#[test]
fn repeated_runs_are_deterministic() {
    for design in all_designs() {
        let module = design.build().unwrap();
        let config = SimConfig::until_nanos(design.sim_time_ns(10));
        let a = run(&module, design.top, &config, EngineKind::Interpret);
        let b = run(&module, design.top, &config, EngineKind::Interpret);
        assert_eq!(
            a.trace.events(),
            b.trace.events(),
            "{}: interpreter runs diverge",
            design.name
        );
        let c = run(&module, design.top, &config, EngineKind::Compile);
        let d = run(&module, design.top, &config, EngineKind::Compile);
        assert_eq!(
            c.trace.events(),
            d.trace.events(),
            "{}: blaze runs diverge",
            design.name
        );
    }
}

/// A chain of `depth` functions, each calling the next, under a process
/// that calls the first and drives the result; with `depth == 0` the one
/// function calls itself instead.
fn call_chain(depth: usize) -> Module {
    let mut source = String::new();
    for i in 0..depth.max(1) {
        let callee = if depth == 0 { 0 } else { i + 1 };
        if depth != 0 && callee == depth {
            source += &format!("func @f{} (i8 %x) i8 {{\nentry:\n    ret i8 %x\n}}\n", i);
        } else {
            source += &format!(
                "func @f{} (i8 %x) i8 {{\nentry:\n    %r = call i8 @f{} (%x)\n    ret i8 %r\n}}\n",
                i, callee
            );
        }
    }
    source += "proc @top () -> (i8$ %q) {\nentry:\n    %v = const i8 7\n    %d = const time 1ns\n    \
               %r = call i8 @f0 (%v)\n    drv i8$ %q, %r after %d\n    halt\n}\n";
    llhd::assembly::parse_module(&source).expect("call chain parses")
}

/// Unbounded recursion is a step error — the same one on both engines —
/// not a stack overflow (which would abort the process, past any
/// `catch_unwind`).
#[test]
fn unbounded_recursion_is_the_same_runtime_error_on_both_engines() {
    let module = call_chain(0);
    let errors: Vec<String> = [EngineKind::Interpret, EngineKind::Compile]
        .into_iter()
        .map(|engine| {
            SimSession::builder(&module, "top")
                .engine(engine)
                .until_nanos(10)
                .build()
                .unwrap()
                .run()
                .unwrap_err()
                .to_string()
        })
        .collect();
    assert_eq!(errors[0], "runtime error: call depth limit (256) exceeded in @f0");
    assert_eq!(errors[0], errors[1]);
}

/// The limit itself is reachable: a chain exactly `MAX_CALL_DEPTH` deep
/// runs to completion on a default-sized (2 MiB) spawned-thread stack —
/// what a server worker has — on both engines, and one frame more fails.
#[test]
fn call_chain_at_the_depth_limit_fits_a_default_thread_stack() {
    let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
        let config = SimConfig::until_nanos(10);
        let at_limit = call_chain(llhd_sim::MAX_CALL_DEPTH);
        let over_limit = call_chain(llhd_sim::MAX_CALL_DEPTH + 1);
        for engine in [EngineKind::Interpret, EngineKind::Compile] {
            let result = run(&at_limit, "top", &config, engine);
            let q = result.trace.changes_of("q").last().cloned().unwrap();
            assert_eq!(q.value, llhd::value::ConstValue::int(8, 7));
            let err = SimSession::builder(&over_limit, "top")
                .engine(engine)
                .config(config.clone())
                .build()
                .unwrap()
                .run()
                .unwrap_err();
            assert!(err.to_string().contains("call depth limit (256)"), "{}", err);
        }
    });
    worker.unwrap().join().expect("ran within a 2 MiB stack");
}
