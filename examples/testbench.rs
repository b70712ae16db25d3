//! Simulate the paper's accumulator testbench (Figure 2/3) end-to-end and
//! check the accumulator invariant q == sum of driven inputs, mirroring the
//! `@acc_tb_check` function of Figure 2.
//!
//! Run with `cargo run --example testbench`.

use llhd_designs::accumulator_example;
use llhd_sim::{EngineKind, SimSession};

fn main() {
    let module = accumulator_example().expect("accumulator compiles");
    let result = SimSession::builder(&module, "acc_tb")
        .engine(EngineKind::Auto)
        .until_nanos(200)
        .build()
        .expect("session builds")
        .run()
        .expect("simulates");

    // With x = 1 and en = 1 the accumulator increments by one per cycle, so
    // q(i) = i — the i*(i+1)/2 check of the paper specialised to x = 1
    // driven as a constant.
    let mut expected = 0u64;
    let mut checked = 0usize;
    let mut failures = 0usize;
    for event in result.trace.changes_of("q") {
        expected += 1;
        checked += 1;
        if event.value.to_u64() != Some(expected) {
            failures += 1;
            eprintln!(
                "mismatch at {}: expected {}, got {}",
                event.time, expected, event.value
            );
        }
    }
    println!(
        "checked {} accumulator updates, {} mismatches, final value {}",
        checked, failures, expected
    );
    println!(
        "simulation ran until {} with {} signal changes and {} process activations",
        result.end_time, result.signal_changes, result.activations
    );
    assert_eq!(failures, 0, "accumulator mismatches detected");
    assert!(checked > 10, "testbench should exercise many cycles");
}
