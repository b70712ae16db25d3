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
    llhd_blaze::register();
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

/// Every blaze lowering configuration — generic dispatch, specialization
/// without fusion, and the full superinstruction pipeline — produces the
/// identical trace on every design. This is the ablation surface's
/// correctness guarantee: the knobs may only change speed, never a single
/// byte of observable behaviour.
#[test]
fn blaze_lowering_knobs_do_not_change_traces() {
    use llhd_blaze::{compile_design_with, BlazeOptions, BlazeSimulator};
    use llhd_sim::elaborate;
    use std::sync::Arc;

    for design in all_designs() {
        let module = design.build().unwrap();
        let config = SimConfig::until_nanos(design.sim_time_ns(20));
        let elaborated = Arc::new(elaborate(&module, design.top).unwrap());
        let reference = run(&module, design.top, &config, EngineKind::Interpret);
        for options in [
            BlazeOptions {
                fuse: false,
                specialize: false,
                islands: true,
            },
            BlazeOptions {
                fuse: false,
                specialize: true,
                islands: true,
            },
            BlazeOptions {
                fuse: true,
                specialize: false,
                islands: true,
            },
            BlazeOptions::default(),
        ] {
            let compiled =
                compile_design_with(&module, Arc::clone(&elaborated), options).unwrap();
            let result = BlazeSimulator::new(compiled, config.clone())
                .run()
                .unwrap();
            assert_eq!(
                reference.trace.events(),
                result.trace.events(),
                "{} ({:?}): trace diverges from the interpreter",
                design.name,
                options
            );
            assert_eq!(
                reference.signal_changes, result.signal_changes,
                "{} ({:?}): signal change counts diverge",
                design.name,
                options
            );
        }
    }
}

/// Island-parallel instants against the serial loop, on the generated
/// corpus that actually *has* islands, at several scales and thread
/// counts, on both engines: the traces, statistics, and end times must be
/// byte-identical. This is the correctness contract of the `threads` knob
/// — parallelism may only change speed, never a single observable byte.
#[test]
fn parallel_and_serial_runs_are_byte_identical_on_generated_designs() {
    use llhd_designs::{fir_bank, noc_mesh};

    for design in [fir_bank(4, 8, 3), fir_bank(16, 32, 3), noc_mesh(4, 4, 5), noc_mesh(8, 8, 5)] {
        let module = design.build().unwrap();
        for engine in [EngineKind::Interpret, EngineKind::Compile] {
            let serial_config = SimConfig::until_nanos(design.sim_time_ns(40));
            let serial = run(&module, &design.top, &serial_config, engine);
            assert!(
                serial.trace.changes_of(&design.probe_signal).count() > 0,
                "{}: no activity on probe signal {}",
                design.name,
                design.probe_signal
            );
            for threads in [2, 4, 8] {
                let config = serial_config.clone().with_threads(threads);
                let parallel = run(&module, &design.top, &config, engine);
                assert_eq!(
                    serial.trace.events(),
                    parallel.trace.events(),
                    "{} ({:?}, {} threads): trace diverges from serial",
                    design.name,
                    engine,
                    threads
                );
                assert_eq!(
                    serial.trace.to_vcd("1fs"),
                    parallel.trace.to_vcd("1fs"),
                    "{} ({:?}, {} threads): VCD output diverges",
                    design.name,
                    engine,
                    threads
                );
                assert_eq!(
                    (serial.signal_changes, serial.activations, serial.end_time),
                    (parallel.signal_changes, parallel.activations, parallel.end_time),
                    "{} ({:?}, {} threads): statistics diverge",
                    design.name,
                    engine,
                    threads
                );
            }
        }
    }
}

/// The same contract at the top of the corpus: the largest generated
/// designs (32-lane FIR bank, 16-row NoC mesh — the scales the
/// `sim-parallel` benchmarks measure), both engines, threads 2/4/8.
/// Ignored by default because it is release-weight; `ci.sh` runs it
/// explicitly under `--release` as the parallel-differential gate.
#[test]
#[ignore = "release-weight; run explicitly by ci.sh"]
fn largest_generated_design_parallel_differential() {
    use llhd_designs::{fir_bank, noc_mesh};

    for design in [fir_bank(32, 64, 7), noc_mesh(16, 8, 11)] {
        let module = design.build().unwrap();
        for engine in [EngineKind::Interpret, EngineKind::Compile] {
            let serial_config = SimConfig::until_nanos(design.sim_time_ns(30));
            let serial = run(&module, &design.top, &serial_config, engine);
            assert!(
                serial.trace.changes_of(&design.probe_signal).count() > 0,
                "{}: no activity on probe signal {}",
                design.name,
                design.probe_signal
            );
            for threads in [2, 4, 8] {
                let config = serial_config.clone().with_threads(threads);
                let parallel = run(&module, &design.top, &config, engine);
                assert_eq!(
                    serial.trace.events(),
                    parallel.trace.events(),
                    "{} ({:?}, {} threads): trace diverges from serial",
                    design.name,
                    engine,
                    threads
                );
                assert_eq!(
                    (serial.signal_changes, serial.activations, serial.end_time),
                    (parallel.signal_changes, parallel.activations, parallel.end_time),
                    "{} ({:?}, {} threads): statistics diverge",
                    design.name,
                    engine,
                    threads
                );
            }
        }
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
    llhd_blaze::register();
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
    llhd_blaze::register();
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
