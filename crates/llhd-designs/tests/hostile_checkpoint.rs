//! Hostile checkpoint bytes against both engines over the ten paper
//! designs: every strict prefix and every single-byte corruption of a
//! real mid-run checkpoint must come back from `restore` as `Ok` or
//! `Err` — never as a panic. A checkpoint arrives over the wire
//! (`session.restore`), so a panic here is a remote crash.
//!
//! Blobs that restore successfully are stepped a little further, and must
//! not panic there either: both engines check every restored register,
//! memory cell and `reg` sample against its slot's type, so state that is
//! well-formed but wrongly typed is refused by `restore` instead of
//! panicking a width-checked operator later.

use llhd_blaze::{compile_design, BlazeSimulator};
use llhd_designs::all_designs;
use llhd_sim::{Driver, EngineState, Executor, SimConfig, Simulator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

#[derive(Default, Debug)]
struct Tally {
    blobs: usize,
    rejected: usize,
    restored: usize,
    restore_panics: usize,
    step_panics: usize,
}

/// Checkpoint a fresh engine after 40 steps, then feed every corruption
/// of that blob to another fresh engine.
fn attack<X: Executor>(fresh: impl Fn() -> Driver<X>, tally: &mut Tally) {
    let mut donor = fresh();
    for _ in 0..40 {
        if !donor.step().unwrap() {
            break;
        }
    }
    let blob = donor.checkpoint().unwrap().as_bytes().to_vec();
    let mut feed = |bytes: Vec<u8>| {
        tally.blobs += 1;
        let mut victim = fresh();
        let restored = catch_unwind(AssertUnwindSafe(|| {
            EngineState::from_bytes(bytes).and_then(|state| victim.restore(&state))
        }));
        match restored {
            Err(_) => tally.restore_panics += 1,
            Ok(Err(_)) => tally.rejected += 1,
            Ok(Ok(())) => {
                tally.restored += 1;
                let stepped = catch_unwind(AssertUnwindSafe(|| {
                    for _ in 0..20 {
                        if !matches!(victim.step(), Ok(true)) {
                            break;
                        }
                    }
                }));
                tally.step_panics += stepped.is_err() as usize;
            }
        }
    };
    for len in 0..blob.len() {
        feed(blob[..len].to_vec());
    }
    for i in 0..blob.len() {
        for mask in [0x01, 0x80, 0xff] {
            let mut bytes = blob.clone();
            bytes[i] ^= mask;
            feed(bytes);
        }
    }
}

#[test]
fn corrupt_checkpoints_never_panic_inside_restore() {
    // The expected step-phase panics would otherwise flood the output.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut tallies = [Tally::default(), Tally::default()];
    for design in all_designs() {
        let module = design.build().unwrap();
        // Tight runaway guards: a corrupted resume point may loop.
        let mut config = SimConfig::until_nanos(design.sim_time_ns(50));
        config.max_steps_per_activation = 10_000;
        config.max_deltas_per_instant = 100;
        let elaborated = Arc::new(llhd_sim::elaborate(&module, design.top).unwrap());
        let compiled = Arc::new(compile_design(&module, Arc::clone(&elaborated)).unwrap());
        attack(
            || Simulator::new(&module, Arc::clone(&elaborated), config.clone()),
            &mut tallies[0],
        );
        attack(
            || BlazeSimulator::new(Arc::clone(&compiled), config.clone()).into_driver(),
            &mut tallies[1],
        );
    }
    std::panic::set_hook(hook);
    for (engine, tally) in ["interp", "blaze"].iter().zip(&tallies) {
        println!("hostile checkpoints, {}: {:?}", engine, tally);
        assert_eq!(tally.restore_panics, 0, "{}: restore panicked", engine);
        assert_eq!(
            tally.step_panics, 0,
            "{}: a restored blob panicked a later step",
            engine
        );
        assert!(
            tally.rejected > 0 && tally.restored > 0,
            "{}: {:?}",
            engine,
            tally
        );
    }
}

/// A checkpoint count is a varint of up to 128 bits, so one past
/// `usize::MAX` must be refused, not wrapped: slot count 2^64 + n in a
/// halted process's interpreter blob would otherwise read back as n and
/// restore.
#[test]
fn a_count_past_usize_max_is_refused_not_wrapped() {
    let module = llhd::assembly::parse_module("proc @p () -> () {\nentry:\n    halt\n}\n").unwrap();
    let design = Arc::new(llhd_sim::elaborate(&module, "p").unwrap());
    let fresh = || Simulator::new(&module, Arc::clone(&design), SimConfig::until_nanos(10));
    let mut sim = fresh();
    sim.initialize().unwrap();
    let blob = sim.checkpoint().unwrap().as_bytes().to_vec();
    // The one instance's state ends the blob: halted, epoch 1, the slot
    // count, no live slot, no live memory cell, no `reg` sample.
    let n = blob.len();
    assert_eq!(
        (blob[n - 6], blob[n - 5], &blob[n - 3..]),
        (2, 1, &[0, 0, 0][..])
    );
    let mut bytes = blob[..n - 4].to_vec();
    llhd::bitcode::write_varint(&mut bytes, (1u128 << 64) + u128::from(blob[n - 4]));
    bytes.extend_from_slice(&blob[n - 3..]);
    let err = fresh()
        .restore(&EngineState::from_bytes(bytes).unwrap())
        .unwrap_err();
    assert!(err.to_string().contains("corrupt engine checkpoint"), "{err}");
    fresh()
        .restore(&EngineState::from_bytes(blob).unwrap())
        .unwrap();
}
