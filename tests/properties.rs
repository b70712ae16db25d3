//! Property-based tests on the core data structures and invariants, driven
//! by the in-repo deterministic helper in `llhd_workspace::propcheck`.

use llhd::eval::eval_binary;
use llhd::ir::Opcode;
use llhd::value::{ApInt, ConstValue, LogicBit, LogicVector, TimeValue};
use llhd_workspace::propcheck::forall;
use llhd_workspace::{prop_assert, prop_assert_eq};

/// ApInt arithmetic agrees with native u64 arithmetic modulo 2^width for
/// widths up to 64.
#[test]
fn apint_matches_u64_model() {
    forall("apint matches u64 model", |rng| {
        let a = rng.u64();
        let b = rng.u64();
        let width = rng.range_usize(1, 64);
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let (am, bm) = (a & mask, b & mask);
        let x = ApInt::from_u64(width, am);
        let y = ApInt::from_u64(width, bm);
        prop_assert_eq!(x.add(&y).to_u64(), am.wrapping_add(bm) & mask);
        prop_assert_eq!(x.sub(&y).to_u64(), am.wrapping_sub(bm) & mask);
        prop_assert_eq!(x.mul(&y).to_u64(), am.wrapping_mul(bm) & mask);
        prop_assert_eq!(x.and(&y).to_u64(), am & bm);
        prop_assert_eq!(x.or(&y).to_u64(), am | bm);
        prop_assert_eq!(x.xor(&y).to_u64(), am ^ bm);
        if let (Some(quotient), Some(remainder)) = (am.checked_div(bm), am.checked_rem(bm)) {
            prop_assert_eq!(x.udiv(&y).to_u64(), quotient);
            prop_assert_eq!(x.urem(&y).to_u64(), remainder);
        }
        prop_assert_eq!(x.ucmp(&y), am.cmp(&bm));
        Ok(())
    });
}

/// Blaze's word file computes every integer binary op exactly like the
/// shared evaluator, at every width a machine word holds.
#[test]
fn word_file_arithmetic_matches_the_evaluator() {
    use llhd_blaze::superop::IntBin;
    const OPCODES: [Opcode; 25] = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Umul,
        Opcode::Smul,
        Opcode::Udiv,
        Opcode::Urem,
        Opcode::Umod,
        Opcode::Sdiv,
        Opcode::Srem,
        Opcode::Smod,
        Opcode::Shl,
        Opcode::Shr,
        Opcode::Eq,
        Opcode::Neq,
        Opcode::Ult,
        Opcode::Ugt,
        Opcode::Ule,
        Opcode::Uge,
        Opcode::Slt,
        Opcode::Sgt,
        Opcode::Sle,
        Opcode::Sge,
    ];
    forall("word file arithmetic matches the evaluator", |rng| {
        let width = rng.range_usize(1, 64);
        let mask = u64::MAX >> (64 - width);
        let opcode = OPCODES[rng.range_usize(0, OPCODES.len() - 1)];
        let a = rng.u64() & mask;
        // Small right operands reach the zero-divisor and shift-width
        // edges often.
        let b = match rng.range_u64(0, 2) {
            0 => rng.range_u64(0, 70) & mask,
            _ => rng.u64() & mask,
        };
        let reference = eval_binary(
            opcode,
            &ConstValue::int(width, a),
            &ConstValue::int(width, b),
        )
        .unwrap();
        let kind = IntBin::from_opcode(opcode).unwrap();
        prop_assert_eq!(
            kind.eval_word(width as u8, a, b),
            reference.as_int().unwrap().to_u64()
        );
        Ok(())
    });
}

/// Wide ApInt addition/subtraction are inverses, and decimal printing
/// round-trips.
#[test]
fn apint_wide_roundtrips() {
    forall("wide apint roundtrips", |rng| {
        let limbs = rng.vec(1, 3, |r| r.u64());
        let width = rng.range_usize(65, 192);
        let value = ApInt::from_limbs(width, limbs);
        let one = ApInt::one(width);
        prop_assert_eq!(value.add(&one).sub(&one), value.clone());
        prop_assert_eq!(value.neg().neg(), value.clone());
        let printed = value.to_string_unsigned();
        prop_assert_eq!(ApInt::from_str_radix10(width, &printed), Some(value));
        Ok(())
    });
}

/// The shared evaluator's comparisons are consistent: exactly one of `ult`,
/// `eq`, `ugt` holds.
#[test]
fn comparison_trichotomy() {
    forall("comparison trichotomy", |rng| {
        let a = rng.u32();
        let b = rng.u32();
        let x = ConstValue::int(32, a as u64);
        let y = ConstValue::int(32, b as u64);
        let lt = eval_binary(Opcode::Ult, &x, &y).unwrap().is_truthy();
        let eq = eval_binary(Opcode::Eq, &x, &y).unwrap().is_truthy();
        let gt = eval_binary(Opcode::Ugt, &x, &y).unwrap().is_truthy();
        prop_assert_eq!(usize::from(lt) + usize::from(eq) + usize::from(gt), 1);
        Ok(())
    });
}

/// IEEE 1164 resolution is commutative and idempotent for every pair of
/// logic states, and logic vector string printing round-trips.
#[test]
fn logic_resolution_properties() {
    forall("logic resolution properties", |rng| {
        let x = LogicBit::ALL[rng.range_usize(0, 8)];
        let y = LogicBit::ALL[rng.range_usize(0, 8)];
        prop_assert_eq!(x.resolve(y), y.resolve(x));
        // Resolution is idempotent for every driver state except don't-care,
        // which the IEEE 1164 table resolves to X even against itself.
        if x != LogicBit::DontCare {
            prop_assert_eq!(x.resolve(x), x);
        } else {
            prop_assert_eq!(x.resolve(x), LogicBit::Unknown);
        }
        let bits = rng.vec(1, 15, |r| LogicBit::ALL[r.range_usize(0, 8)]);
        let vector = LogicVector::from_bits(bits);
        let printed = vector.to_string();
        prop_assert_eq!(LogicVector::from_str(&printed), Some(vector));
        Ok(())
    });
}

/// Time values order consistently with their components and advancing by a
/// physical delay is monotone.
#[test]
fn time_ordering() {
    forall("time ordering", |rng| {
        let a = rng.u32();
        let b = rng.u32();
        let d = rng.range_u64(1, 999) as u32;
        let ta = TimeValue::from_femtos(a as u128);
        let tb = TimeValue::from_femtos(b as u128);
        prop_assert_eq!(ta < tb, a < b);
        let delay = TimeValue::from_femtos(d as u128);
        prop_assert!(ta.advance_by(&delay) > ta);
        Ok(())
    });
}

/// Assembly and bitcode round-trips hold for randomly shaped (but
/// well-formed) arithmetic functions.
#[test]
fn random_function_roundtrips() {
    use llhd::ir::{Module, Signature, UnitBuilder, UnitData, UnitKind, UnitName};
    use llhd::ty::int_ty;

    forall("random function roundtrips", |rng| {
        let ops = rng.vec(1, 39, |r| r.range_usize(0, 5));
        let width = rng.range_usize(1, 63);

        let mut unit = UnitData::new(
            UnitKind::Function,
            UnitName::global("random"),
            Signature::new_func(vec![int_ty(width), int_ty(width)], int_ty(width)),
        );
        let a = unit.arg_value(0);
        let b = unit.arg_value(1);
        {
            let mut builder = UnitBuilder::new(&mut unit);
            let entry = builder.block("entry");
            builder.append_to(entry);
            let mut acc = a;
            for &op in &ops {
                acc = match op {
                    0 => builder.add(acc, b),
                    1 => builder.sub(acc, b),
                    2 => builder.and(acc, b),
                    3 => builder.or(acc, b),
                    4 => builder.xor(acc, b),
                    _ => builder.umul(acc, b),
                };
            }
            builder.ret_value(acc);
        }
        let mut module = Module::new();
        module.add_unit(unit);
        prop_assert!(llhd::verifier::verify_module(&module).is_ok());
        let text = llhd::assembly::write_module(&module);
        let reparsed = llhd::assembly::parse_module(&text).unwrap();
        prop_assert_eq!(llhd::assembly::write_module(&reparsed), text.clone());
        let bytes = llhd::bitcode::encode_module(&module);
        let decoded = llhd::bitcode::decode_module(&bytes).unwrap();
        prop_assert_eq!(llhd::assembly::write_module(&decoded), text);
        Ok(())
    });
}

/// The shared scheduler's calendar event queue pops events in
/// nondecreasing `TimeValue` order, never loses or invents events,
/// recycles its buckets instead of growing without bound, and replays
/// every popped instant's drives — word and value payloads mixed — in
/// the order they were scheduled, which last-writer-wins relies on.
#[test]
fn event_queue_pops_in_nondecreasing_time_order() {
    use llhd_sim::design::SignalId;
    use llhd_sim::sched::{EventQueue, Payload};
    use std::collections::HashMap;

    type Expected = HashMap<TimeValue, Vec<(SignalId, Payload)>>;
    fn check_pop(
        expected: &mut Expected,
        t: TimeValue,
        drives: &[(SignalId, Payload)],
    ) -> Result<(), String> {
        let want = expected.remove(&t).unwrap_or_default();
        prop_assert_eq!(drives, &want[..]);
        Ok(())
    }

    forall("event queue pops in nondecreasing time order", |rng| {
        let mut queue = EventQueue::new();
        let mut scheduled = 0usize;
        let mut popped = 0usize;
        let mut last_popped: Option<TimeValue> = None;
        // Per instant, the drives scheduled for it, in scheduling order;
        // each payload carries its drive's sequence number.
        let mut expected = Expected::new();
        let (mut drives, mut wakes) = (vec![], vec![]);
        // Interleave bursts of schedules (at random, possibly duplicate
        // timestamps) with pops, like a running simulation would.
        let rounds = rng.range_usize(1, 20);
        for _ in 0..rounds {
            let burst = rng.range_usize(0, 8);
            for _ in 0..burst {
                // A coarse timestamp grid provokes same-instant batching.
                let time = TimeValue::new(
                    rng.range_u64(0, 9) as u128 * 1_000,
                    rng.range_u64(0, 3) as u32,
                    rng.range_u64(0, 2) as u32,
                );
                // Events scheduled in the past of an already-popped instant
                // would break monotonicity by construction; a real engine
                // never does that, so skip them here too.
                if last_popped.is_some_and(|t| time <= t) {
                    continue;
                }
                let sig = SignalId(rng.range_usize(0, 7));
                let payload = match rng.range_u64(0, 5) {
                    0 | 1 => {
                        queue.schedule_wake(time, rng.u32() % 16, rng.u64());
                        None
                    }
                    2 | 3 => {
                        queue.schedule_word(time, sig, scheduled as u64);
                        Some(Payload::Word(scheduled as u64))
                    }
                    _ => {
                        let value = ConstValue::int(80, scheduled as u64);
                        queue.schedule_drive(time, sig, value.clone());
                        Some(Payload::Value(value))
                    }
                };
                if let Some(payload) = payload {
                    expected.entry(time).or_default().push((sig, payload));
                }
                scheduled += 1;
            }
            if rng.range_u64(0, 1) == 0 {
                drives.clear();
                wakes.clear();
                if let Some(t) = queue.pop_next(&mut drives, &mut wakes) {
                    if let Some(prev) = last_popped {
                        prop_assert!(
                            t > prev,
                            "popped {:?} after {:?}",
                            t,
                            prev
                        );
                    }
                    last_popped = Some(t);
                    popped += drives.len() + wakes.len();
                    prop_assert!(!drives.is_empty() || !wakes.is_empty());
                    check_pop(&mut expected, t, &drives)?;
                }
            }
        }
        // Drain the rest: strictly increasing instants, all events seen.
        loop {
            drives.clear();
            wakes.clear();
            match queue.pop_next(&mut drives, &mut wakes) {
                None => break,
                Some(t) => {
                    if let Some(prev) = last_popped {
                        prop_assert!(t > prev, "popped {:?} after {:?}", t, prev);
                    }
                    last_popped = Some(t);
                    popped += drives.len() + wakes.len();
                    check_pop(&mut expected, t, &drives)?;
                }
            }
        }
        prop_assert_eq!(popped, scheduled);
        prop_assert!(queue.is_empty());
        // Each schedule allocates at most one bucket, so this can never
        // flake; the tight recycling guarantee is covered by the
        // deterministic `buckets_are_reused_after_pops` unit test in
        // `llhd_sim::sched`.
        prop_assert!(queue.allocated_buckets() <= scheduled.max(1));
        Ok(())
    });
}

/// Blaze's fused, specialized execution is observably identical to the
/// interpreter: both engines are driven through seeded random
/// step/peek/poke schedules in lockstep, and every intermediate signal
/// value, the simulation clock, and the final trace must agree byte for
/// byte.
#[test]
fn blaze_and_interpreter_agree_under_random_schedules() {
    use llhd::assembly::parse_module;
    use llhd::value::ConstValue;
    use llhd_blaze::{compile_design, BlazeSimulator};
    use llhd_sim::{elaborate, SimConfig, Simulator};
    use std::sync::Arc;

    // A design that exercises the fusion patterns: array+mux selection,
    // compare+drive, compare+branch in a looping process, and memory ops.
    let module = parse_module(
        r#"
        entity @alu (i8$ %a, i8$ %b, i1$ %sel) -> (i8$ %y, i1$ %flag) {
            %ap = prb i8$ %a
            %bp = prb i8$ %b
            %sp = prb i1$ %sel
            %sum = add i8 %ap, %bp
            %xorv = xor i8 %ap, %bp
            %ys = array [%sum, %xorv]
            %y0 = mux [2 x i8] %ys, %sp
            %delay = const time 1ns
            drv i8$ %y, %y0 after %delay
            %limit = const i8 100
            %big = ugt i8 %sum, %limit
            drv i1$ %flag, %big after %delay
        }
        proc @pulse () -> (i8$ %a) {
        entry:
            %zero = const i8 0
            %one = const i8 1
            %step = const time 2ns
            %i = var i8 %zero
            br %loop
        loop:
            %cur = ld i8* %i
            %next = add i8 %cur, %one
            st i8* %i, %next
            drv i8$ %a, %next after %step
            %cap = const i8 50
            %more = ult i8 %next, %cap
            br %more, %end, %pause
        pause:
            wait %loop for %step
        end:
            halt
        }
        entity @top () -> () {
            %z8 = const i8 0
            %z1 = const i1 0
            %a = sig i8 %z8
            %b = sig i8 %z8
            %sel = sig i1 %z1
            %y = sig i8 %z8
            %flag = sig i1 %z1
            inst @alu (%a, %b, %sel) -> (%y, %flag)
            inst @pulse () -> (%a)
        }
        "#,
    )
    .unwrap();
    let elaborated = Arc::new(elaborate(&module, "top").unwrap());
    let pokeable = ["top.b", "top.sel"];
    let observable = ["top.a", "top.b", "top.sel", "top.y", "top.flag"];
    let signals: Vec<_> = observable
        .iter()
        .map(|name| elaborated.signal_by_name(name).unwrap())
        .collect();

    forall("blaze matches the interpreter under schedules", |rng| {
        let config = SimConfig::until_nanos(rng.range_u64(20, 200) as u128);
        let compiled = compile_design(&module, Arc::clone(&elaborated)).unwrap();
        let mut blaze = BlazeSimulator::new(compiled, config.clone());
        let mut interp = Simulator::new(&module, Arc::clone(&elaborated), config);
        let actions = rng.range_usize(1, 40);
        for _ in 0..actions {
            match rng.range_u64(0, 3) {
                // Advance both engines one scheduler cycle.
                0 | 1 => {
                    let a = blaze.step().unwrap();
                    let b = interp.step().unwrap();
                    prop_assert_eq!(a, b);
                }
                // Poke the same random value into both.
                2 => {
                    let name = pokeable[rng.range_usize(0, pokeable.len() - 1)];
                    let sig = elaborated.signal_by_name(name).unwrap();
                    let value = if name.ends_with("sel") {
                        ConstValue::bool(rng.range_u64(0, 1) == 1)
                    } else {
                        ConstValue::int(8, rng.range_u64(0, 255))
                    };
                    blaze.poke(sig, value.clone());
                    interp.poke(sig, value);
                }
                // Peek every observable signal; values must agree.
                _ => {
                    for &sig in &signals {
                        prop_assert_eq!(blaze.signal_value(sig), interp.signal_value(sig));
                    }
                }
            }
            prop_assert_eq!(blaze.time(), interp.time());
        }
        // Run both out and require byte-identical traces and statistics.
        while blaze.step().unwrap() {
            prop_assert!(interp.step().unwrap());
        }
        prop_assert!(!interp.step().unwrap());
        let blaze = blaze.finish();
        let interp = interp.finish();
        prop_assert_eq!(blaze.trace.events(), interp.trace.events());
        prop_assert_eq!(blaze.signal_changes, interp.signal_changes);
        prop_assert_eq!(blaze.end_time, interp.end_time);
        Ok(())
    });
}

/// Checkpointing at a seeded random step and restoring into a *fresh*
/// engine is invisible: the resumed run's final trace, end time, and
/// change count are byte-identical to an uninterrupted run of the same
/// horizon — on both engines.
#[test]
fn checkpoint_restore_is_invisible_at_any_cut_point() {
    use llhd::assembly::parse_module;
    use llhd_sim::api::{EngineKind, SimSession};
    use llhd_sim::SimConfig;

    llhd_blaze::register();
    // A process with live variables and a resume point, feeding an entity,
    // so the checkpoint has to carry instance state, pending events, and
    // scheduler bookkeeping — not just signal values.
    let module = parse_module(
        r#"
        entity @scale (i8$ %a) -> (i8$ %y) {
            %ap = prb i8$ %a
            %two = const i8 2
            %yv = umul i8 %ap, %two
            %delay = const time 1ns
            drv i8$ %y, %yv after %delay
        }
        proc @pulse () -> (i8$ %a) {
        entry:
            %zero = const i8 0
            %one = const i8 1
            %step = const time 2ns
            %i = var i8 %zero
            br %loop
        loop:
            %cur = ld i8* %i
            %next = add i8 %cur, %one
            st i8* %i, %next
            drv i8$ %a, %next after %step
            wait %loop for %step
        }
        entity @top () -> () {
            %z8 = const i8 0
            %a = sig i8 %z8
            %y = sig i8 %z8
            inst @scale (%a) -> (%y)
            inst @pulse () -> (%a)
        }
        "#,
    )
    .unwrap();

    forall("checkpoint restore is invisible at any cut point", |rng| {
        let config = SimConfig::until_nanos(rng.range_u64(10, 80) as u128);
        // Cut anywhere from "before the first step" deep into the run.
        let cut = rng.range_usize(0, 30);
        for engine in [EngineKind::Interpret, EngineKind::Compile] {
            let full = SimSession::builder(&module, "top")
                .engine(engine)
                .config(config.clone())
                .build()
                .unwrap()
                .run()
                .unwrap();
            let mut first = SimSession::builder(&module, "top")
                .engine(engine)
                .config(config.clone())
                .build()
                .unwrap();
            for _ in 0..cut {
                if !first.step().unwrap() {
                    break;
                }
            }
            let state = first.checkpoint().unwrap();
            drop(first);
            let mut resumed = SimSession::builder(&module, "top")
                .engine(engine)
                .config(config.clone())
                .build()
                .unwrap();
            resumed.restore(&state).unwrap();
            while resumed.step().unwrap() {}
            let result = resumed.finish().unwrap();
            prop_assert_eq!(full.trace.events(), result.trace.events());
            prop_assert_eq!(full.end_time, result.end_time.clone());
            prop_assert_eq!(full.signal_changes, result.signal_changes);
        }
        Ok(())
    });
}

/// Checkpoint header rejection: a version-1 header (no design hash), a
/// version-2 header (the island-plan digest), a version-3 header whose
/// design hash does not match the live design, and a blob taken over a
/// design of the same shape with one signal renamed are all refused with
/// a clear message — never restored over a different design — and the
/// refusal leaves a fresh session usable.
#[test]
fn checkpoint_v1_v2_and_foreign_design_hash_are_rejected_cleanly() {
    use llhd::bitcode::{read_varint, write_varint};
    use llhd_designs::fir_bank;
    use llhd_sim::api::{EngineKind, EngineState, SimSession};
    use llhd_sim::SimConfig;

    llhd_blaze::register();
    let design = fir_bank(3, 6, 13);
    let module = design.build().unwrap();
    let config = SimConfig::until_nanos(60);

    for engine in [EngineKind::Interpret, EngineKind::Compile] {
        let build = || {
            SimSession::builder(&module, &design.top)
                .engine(engine)
                .config(config.clone())
                .build()
                .unwrap()
        };
        let serial = build().run().unwrap();
        let mut session = build();
        for _ in 0..5 {
            session.step().unwrap();
        }
        let v3 = session.checkpoint().unwrap();
        drop(session);
        let bytes = v3.as_bytes();
        assert_eq!(&bytes[..4], b"LHCK");
        assert_eq!(bytes[4], 3, "checkpoints are version 3");
        let mut pos = 5;
        let name_len = read_varint(bytes, &mut pos).unwrap() as usize;
        pos += name_len;
        read_varint(bytes, &mut pos).unwrap(); // num_signals
        read_varint(bytes, &mut pos).unwrap(); // num_instances
        let hash_start = pos;
        let hash = read_varint(bytes, &mut pos).unwrap();
        let hash_end = pos;
        assert_eq!(v3.design_hash().unwrap() as u128, hash);

        // Versions 1 (no hash varint) and 2 (the same header layout as
        // version 3): refused at the door, before any engine sees them.
        let mut v1 = bytes[..4].to_vec();
        v1.push(1);
        v1.extend_from_slice(&bytes[5..hash_start]);
        v1.extend_from_slice(&bytes[hash_end..]);
        let mut v2 = bytes.to_vec();
        v2[4] = 2;
        for (version, old) in [(1, v1), (2, v2)] {
            let err = EngineState::from_bytes(old).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("unsupported engine checkpoint version {}", version)),
                "unexpected error: {}",
                err
            );
        }

        // Foreign hash: same design shape, different design hash.
        // Restore must fail, and say why.
        let mut tampered = bytes[..hash_start].to_vec();
        write_varint(&mut tampered, hash ^ 1);
        tampered.extend_from_slice(&bytes[hash_end..]);
        let tampered = EngineState::from_bytes(tampered).expect("tampered header still parses");
        let err = build().restore(&tampered).unwrap_err();
        assert!(
            err.to_string().contains("different design"),
            "unexpected error: {}",
            err
        );

        // The untampered blob still resumes byte-identically.
        let mut resumed = build();
        resumed.restore(&v3).unwrap();
        while resumed.step().unwrap() {}
        assert_eq!(serial.trace.events(), resumed.finish().unwrap().trace.events());
    }

    // Two designs of one shape — one signal, one instance, the same unit
    // body — that differ only in the signal's name: a blob of one is
    // refused by the other.
    let blink = |name: &str| {
        llhd::assembly::parse_module(&format!(
            "proc @blink () -> (i1$ %{name}) {{
            entry:
                %on = const i1 1
                %off = const i1 0
                %t = const time 5ns
                drv i1$ %{name}, %on after %t
                wait %next for %t
            next:
                drv i1$ %{name}, %off after %t
                wait %entry for %t
            }}"
        ))
        .unwrap()
    };
    let (led, lamp) = (blink("led"), blink("lamp"));
    for engine in [EngineKind::Interpret, EngineKind::Compile] {
        let build = |module| {
            SimSession::builder(module, "blink")
                .engine(engine)
                .until_nanos(100)
                .build()
                .unwrap()
        };
        let mut donor = build(&led);
        for _ in 0..3 {
            donor.step().unwrap();
        }
        let state = donor.checkpoint().unwrap();
        let err = build(&lamp).restore(&state).unwrap_err();
        assert!(
            err.to_string().contains("different design"),
            "{engine:?}: unexpected error: {err}"
        );
        build(&led).restore(&state).unwrap();
    }
}

/// The wire's JSON string encoder (one `write_str` per unescaped run)
/// emits exactly what the original per-character encoder did, for object
/// keys and string values alike, and the output parses back to the input.
#[test]
fn json_string_encoding_matches_per_char_reference() {
    use llhd_server::json::Json;

    /// The per-`char` encoder the run-based one replaced, kept as the
    /// reference.
    fn reference(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    // Quote, backslash, the ASCII edges, and 2-, 3- and 4-byte UTF-8.
    let special: Vec<char> = "\"\\a \u{7f}é→\u{2028}😀\u{10ffff}".chars().collect();
    forall("json string encoding matches per-char reference", |rng| {
        let s: String = rng
            .vec(0, 40, |r| match r.range_usize(0, 3) {
                0 => char::from_u32(r.range_u64(0, 0x1f) as u32).unwrap(),
                1 => special[r.range_usize(0, special.len() - 1)],
                2 => char::from_u32(r.range_u64(0x20, 0x7e) as u32).unwrap(),
                _ => char::from_u32(r.range_u64(0, 0x10ffff) as u32).unwrap_or('\u{fffd}'),
            })
            .into_iter()
            .collect();
        let encoded = Json::str(s.clone()).to_string();
        prop_assert_eq!(encoded, reference(&s));
        let object = Json::Obj(vec![(s.clone(), Json::Bool(true))]).to_string();
        prop_assert_eq!(object, format!("{{{}:true}}", reference(&s)));
        let decoded = Json::parse(&encoded).unwrap();
        prop_assert_eq!(decoded.as_str(), Some(s.as_str()));
        Ok(())
    });
}

/// The dense CFG, dominator and reachability tables agree with the
/// definitions, computed by brute force over the terminators, on random
/// control flow: 1–12 blocks ending in `br`, `br cond`, `wait` or `halt`,
/// some removed (leaving holes in the block slots) and some unreachable.
#[test]
fn dense_analyses_match_their_definitions() {
    use llhd::analysis::{ControlFlowGraph, DominatorTree};
    use llhd::ir::{Block, Signature, UnitBuilder, UnitData, UnitKind, UnitName};
    use llhd::ty::{int_ty, signal_ty};
    use std::collections::BTreeSet;

    /// The blocks reachable from `entry` along terminator targets, never
    /// entering `avoid`.
    fn reach(unit: &UnitData, entry: Block, avoid: Option<Block>) -> BTreeSet<Block> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![entry];
        while let Some(bb) = stack.pop() {
            if Some(bb) == avoid || !seen.insert(bb) {
                continue;
            }
            stack.extend(targets(unit, bb));
        }
        seen
    }
    fn targets(unit: &UnitData, bb: Block) -> Vec<Block> {
        unit.terminator(bb)
            .map(|t| unit.inst_data(t).blocks.clone())
            .unwrap_or_default()
    }

    forall("dense analyses match their definitions", |rng| {
        let mut unit = UnitData::new(
            UnitKind::Process,
            UnitName::global("p"),
            Signature::new_entity(vec![signal_ty(int_ty(1))], vec![]),
        );
        let sig = unit.arg_value(0);
        let n = rng.range_usize(1, 12);
        let mut b = UnitBuilder::new(&mut unit);
        let slots: Vec<Block> = (0..n).map(|i| b.block(format!("b{}", i))).collect();
        // Remove some non-entry blocks before anything branches to them.
        let mut live = vec![slots[0]];
        let mut removed = vec![];
        for &bb in &slots[1..] {
            if rng.range_usize(0, 3) == 0 {
                removed.push(bb);
            } else {
                live.push(bb);
            }
        }
        for &bb in &live {
            let pick = |rng: &mut llhd_workspace::propcheck::Rng| {
                live[rng.range_usize(0, live.len() - 1)]
            };
            b.append_to(bb);
            match rng.range_usize(0, 3) {
                0 => {
                    let target = pick(rng);
                    b.br(target);
                }
                1 => {
                    let cond = b.prb(sig);
                    let (if_false, if_true) = (pick(rng), pick(rng));
                    b.br_cond(cond, if_false, if_true);
                }
                2 => {
                    let target = pick(rng);
                    b.wait(target, vec![sig]);
                }
                _ => {
                    b.halt();
                }
            }
        }
        for bb in removed {
            unit.remove_block(bb);
        }

        let cfg = ControlFlowGraph::new(&unit);
        let domtree = DominatorTree::new(&unit, &cfg);
        let layout = unit.blocks();
        let entry = layout[0];
        for &bb in &layout {
            prop_assert_eq!(cfg.succs(bb).to_vec(), targets(&unit, bb));
            let preds: Vec<Block> = layout
                .iter()
                .flat_map(|&p| targets(&unit, p).into_iter().filter(move |&t| t == bb).map(move |_| p))
                .collect();
            prop_assert_eq!(cfg.preds(bb).to_vec(), preds);
        }
        let reachable = reach(&unit, entry, None);
        let unreachable: Vec<Block> =
            layout.iter().copied().filter(|bb| !reachable.contains(bb)).collect();
        prop_assert_eq!(cfg.unreachable_blocks(&unit), unreachable);
        for &a in &layout {
            let without_a = reach(&unit, entry, Some(a));
            for &bb in &layout {
                // An unreachable block is dominated only by itself.
                let expected = a == bb || (reachable.contains(&bb) && !without_a.contains(&bb));
                prop_assert!(
                    domtree.dominates(a, bb) == expected,
                    "dominates({}, {}) should be {}",
                    a,
                    bb,
                    expected
                );
            }
        }
        Ok(())
    });
}
