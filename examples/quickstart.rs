//! Quickstart: build the paper's accumulator design with the IR builder API,
//! verify it, print it, and simulate it.
//!
//! Run with `cargo run --example quickstart`.

use llhd::assembly::write_module;
use llhd::ir::{Module, RegMode, RegTrigger, Signature, UnitBuilder, UnitData, UnitKind, UnitName};
use llhd::ty::{int_ty, signal_ty};
use llhd::value::{ConstValue, TimeValue};

fn main() {
    // The accumulator of Figure 5 (right column): a register and a
    // combinational adder, already in Structural LLHD.
    let mut module = Module::new();

    // entity @acc_ff: a rising-edge flip-flop.
    let mut ff = UnitData::new(
        UnitKind::Entity,
        UnitName::global("acc_ff"),
        Signature::new_entity(
            vec![signal_ty(int_ty(1)), signal_ty(int_ty(32))],
            vec![signal_ty(int_ty(32))],
        ),
    );
    for (i, name) in ["clk", "d", "q"].iter().enumerate() {
        let arg = ff.arg_value(i);
        ff.set_value_name(arg, *name);
    }
    {
        let clk = ff.arg_value(0);
        let d = ff.arg_value(1);
        let q = ff.arg_value(2);
        let mut b = UnitBuilder::new(&mut ff);
        let clkp = b.prb(clk);
        let dp = b.prb(d);
        b.reg(
            q,
            vec![RegTrigger {
                value: dp,
                mode: RegMode::Rise,
                trigger: clkp,
                gate: None,
            }],
        );
    }
    module.add_unit(ff);

    // entity @acc_comb: d = en ? q + x : q.
    let mut comb = UnitData::new(
        UnitKind::Entity,
        UnitName::global("acc_comb"),
        Signature::new_entity(
            vec![
                signal_ty(int_ty(32)),
                signal_ty(int_ty(32)),
                signal_ty(int_ty(1)),
            ],
            vec![signal_ty(int_ty(32))],
        ),
    );
    for (i, name) in ["q", "x", "en", "d"].iter().enumerate() {
        let arg = comb.arg_value(i);
        comb.set_value_name(arg, *name);
    }
    {
        let q = comb.arg_value(0);
        let x = comb.arg_value(1);
        let en = comb.arg_value(2);
        let d = comb.arg_value(3);
        let mut b = UnitBuilder::new(&mut comb);
        let qp = b.prb(q);
        let xp = b.prb(x);
        let enp = b.prb(en);
        let sum = b.add(qp, xp);
        let choices = b.array(vec![qp, sum]);
        let dn = b.mux(choices, enp);
        let delay = b.const_time(TimeValue::ZERO);
        b.drv(d, dn, delay);
    }
    module.add_unit(comb);

    // entity @acc: wire the two together.
    let mut acc = UnitData::new(
        UnitKind::Entity,
        UnitName::global("acc"),
        Signature::new_entity(
            vec![
                signal_ty(int_ty(1)),
                signal_ty(int_ty(32)),
                signal_ty(int_ty(1)),
            ],
            vec![signal_ty(int_ty(32))],
        ),
    );
    for (i, name) in ["clk", "x", "en", "q"].iter().enumerate() {
        let arg = acc.arg_value(i);
        acc.set_value_name(arg, *name);
    }
    {
        let clk = acc.arg_value(0);
        let x = acc.arg_value(1);
        let en = acc.arg_value(2);
        let q = acc.arg_value(3);
        let mut b = UnitBuilder::new(&mut acc);
        let zero = b.ins_const(ConstValue::int(32, 0));
        let d = b.sig(zero);
        b.unit_mut().set_value_name(d, "d");
        let ff = b.ext_unit(
            UnitName::global("acc_ff"),
            Signature::new_entity(
                vec![signal_ty(int_ty(1)), signal_ty(int_ty(32))],
                vec![signal_ty(int_ty(32))],
            ),
        );
        b.inst(ff, vec![clk, d], vec![q]);
        let comb = b.ext_unit(
            UnitName::global("acc_comb"),
            Signature::new_entity(
                vec![
                    signal_ty(int_ty(32)),
                    signal_ty(int_ty(32)),
                    signal_ty(int_ty(1)),
                ],
                vec![signal_ty(int_ty(32))],
            ),
        );
        b.inst(comb, vec![q, x, en], vec![d]);
    }
    module.add_unit(acc);

    // A little testbench: clock generator plus constant inputs, written as a
    // process in LLHD assembly and linked in.
    let tb = llhd::assembly::parse_module(
        r#"
        proc @acc_tb_stim () -> (i1$ %clk, i32$ %x, i1$ %en) {
        entry:
            %one = const i1 1
            %zero = const i1 0
            %three = const i32 3
            %d1 = const time 1ns
            %d2 = const time 2ns
            drv i1$ %en, %one after %d1
            drv i32$ %x, %three after %d1
            br %tick
        tick:
            drv i1$ %clk, %one after %d1
            drv i1$ %clk, %zero after %d2
            wait %tick for %d2
        }
        entity @acc_tb () -> () {
            %z1 = const i1 0
            %z32 = const i32 0
            %clk = sig i1 %z1
            %en = sig i1 %z1
            %x = sig i32 %z32
            %q = sig i32 %z32
            inst @acc (%clk, %x, %en) -> (%q)
            inst @acc_tb_stim () -> (%clk, %x, %en)
        }
        "#,
    )
    .expect("testbench parses");
    module.link(tb).expect("testbench links");

    llhd::verifier::verify_module(&module).expect("module verifies");
    println!("=== LLHD assembly ===\n{}", write_module(&module));

    // One engine-agnostic surface drives both simulators; the default
    // `EngineKind::Auto` runs the compiled engine, blaze.
    let session = llhd_sim::SimSession::builder(&module, "acc_tb")
        .until_nanos(40)
        .build()
        .expect("session builds");
    println!("Engine selected by EngineKind::Auto: {}", session.engine_name());
    let result = session.run().expect("simulation runs");
    println!("=== Accumulator output (q) over time ===");
    for event in result.trace.changes_of("q") {
        println!("  t = {:>5}   q = {}", event.time.to_string(), event.value);
    }
    println!(
        "Simulated until {} with {} signal changes.",
        result.end_time, result.signal_changes
    );
}
