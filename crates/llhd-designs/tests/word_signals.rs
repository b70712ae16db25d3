//! Signals of every kind side by side on both engines. The scheduler
//! keeps an `iN` signal with N ≤ 64 in a machine word and every other
//! signal as a value; here words (`i1`, `i16`, `i64`) and values (`i65`,
//! `i80`, `l8`, `[4 x i8]`, a struct) are driven, delayed, registered
//! and poked together, checkpointed at three cuts, and must trace and
//! peek the same on both engines and across the cuts. One cut's blob is
//! pinned byte for byte, so the way a signal is stored never shows in a
//! checkpoint.

use llhd::ir::Module;
use llhd::value::{ApInt, ConstValue, LogicVector};
use llhd_sim::api::{EngineKind, EngineState, SimSession};
use llhd_sim::TraceEvent;

const MIXED: &str = r#"
proc @stim () -> (i1$ %b, i16$ %h, i64$ %w, i65$ %x, i80$ %y, l8$ %l, [4 x i8]$ %a, {i8, i32}$ %st) {
entry:
    %d = const time 1ns
    %z1 = const i1 0
    %one = const i1 1
    %z8 = const i8 0
    %z16 = const i16 0
    %z32 = const i32 0
    %z64 = const i64 0
    %z65 = const i65 0
    %z80 = const i80 0
    %k8 = const i8 37
    %k16 = const i16 40000
    %k32 = const i32 3000000001
    %k64 = const i64 18446744073709551557
    %k65 = const i65 36893488147419103001
    %k80 = const i80 1208925819614629174706001
    %la = const l8 "01XZ01HL"
    %lb = const l8 "10ZX10LH"
    %cb = var i1 %z1
    %c8 = var i8 %z8
    %c16 = var i16 %z16
    %c32 = var i32 %z32
    %c64 = var i64 %z64
    %c65 = var i65 %z65
    %c80 = var i80 %z80
    br %loop
loop:
    %b0 = ld i1* %cb
    %b1 = xor i1 %b0, %one
    st i1* %cb, %b1
    %e0 = ld i8* %c8
    %e1 = add i8 %e0, %k8
    st i8* %c8, %e1
    %h0 = ld i16* %c16
    %h1 = add i16 %h0, %k16
    st i16* %c16, %h1
    %f0 = ld i32* %c32
    %f1 = add i32 %f0, %k32
    st i32* %c32, %f1
    %w0 = ld i64* %c64
    %w1 = add i64 %w0, %k64
    st i64* %c64, %w1
    %x0 = ld i65* %c65
    %x1 = add i65 %x0, %k65
    st i65* %c65, %x1
    %y0 = ld i80* %c80
    %y1 = add i80 %y0, %k80
    st i80* %c80, %y1
    %lpair = array [%la, %lb]
    %l1 = mux [2 x l8] %lpair, %b1
    %a1 = array [%e1, %e0, %e1, %k8]
    %s1 = strct {%e1, %f1}
    drv i1$ %b, %b1 after %d
    drv i16$ %h, %h1 after %d
    drv i64$ %w, %w1 after %d
    drv i65$ %x, %x1 after %d
    drv i80$ %y, %y1 after %d
    drv l8$ %l, %l1 after %d
    drv [4 x i8]$ %a, %a1 after %d
    drv {i8, i32}$ %st, %s1 after %d
    wait %loop for %d
}

entity @follow (i1$ %b, i16$ %h, i64$ %w, i65$ %x, l8$ %l, [4 x i8]$ %a, {i8, i32}$ %st) -> (i16$ %hq, i64$ %wq, i65$ %xq, l8$ %lq, [4 x i8]$ %aq, {i8, i32}$ %sq, i16$ %hr, i65$ %xr) {
    %dz = const time 0s
    %dh = const time 500ps
    %bp = prb i1$ %b
    %hp = prb i16$ %h
    %wp = prb i64$ %w
    %xp = prb i65$ %x
    %lp = prb l8$ %l
    %ap = prb [4 x i8]$ %a
    %sp = prb {i8, i32}$ %st
    %k = const i16 3
    %hs = and i16 %hp, %k
    drv i16$ %hq, %hs after %dz
    drv i64$ %wq, %wp after %dz
    drv i65$ %xq, %xp after %dz
    drv l8$ %lq, %lp after %dz
    drv [4 x i8]$ %aq, %ap after %dz
    drv {i8, i32}$ %sq, %sp after %dz
    reg i16$ %hr, %hp rise %bp
    reg i65$ %xr, %xp fall %bp
    %hdl = del i16$ %h, %dh
}

entity @top () -> () {
    %z1 = const i1 0
    %z16 = const i16 0
    %z64 = const i64 0
    %z65 = const i65 0
    %z80 = const i80 0
    %zl = const l8 "UUUUUUUU"
    %z8 = const i8 0
    %z32 = const i32 0
    %za = array [%z8, %z8, %z8, %z8]
    %zs = strct {%z8, %z32}
    %b = sig i1 %z1
    %h = sig i16 %z16
    %w = sig i64 %z64
    %x = sig i65 %z65
    %y = sig i80 %z80
    %l = sig l8 %zl
    %a = sig [4 x i8] %za
    %st = sig {i8, i32} %zs
    %hq = sig i16 %z16
    %wq = sig i64 %z64
    %xq = sig i65 %z65
    %lq = sig l8 %zl
    %aq = sig [4 x i8] %za
    %sq = sig {i8, i32} %zs
    %hr = sig i16 %z16
    %xr = sig i65 %z65
    inst @stim () -> (%b, %h, %w, %x, %y, %l, %a, %st)
    inst @follow (%b, %h, %w, %x, %l, %a, %st) -> (%hq, %wq, %xq, %lq, %aq, %sq, %hr, %xr)
}
"#;

/// Every signal of the design, peeked after every step.
const SIGNALS: [&str; 17] = [
    "b", "h", "w", "x", "y", "l", "a", "st", "hq", "wq", "xq", "lq", "aq", "sq", "hr", "xr", "hdl",
];

/// The steps before which the cut runs checkpoint and restore into a
/// fresh session.
const CUTS: [usize; 3] = [3, 17, 40];

/// Steps the script runs before running out the rest.
const STEPS: usize = 60;

fn int(width: usize, digits: &str) -> ConstValue {
    ConstValue::Int(ApInt::from_str_radix10(width, digits).unwrap())
}

/// The pokes of the script: `(before step, signal, value)`. Each kind of
/// signal is poked, some in the same instant as a process drive.
fn pokes() -> Vec<(usize, &'static str, ConstValue)> {
    let byte = |v| ConstValue::int(8, v);
    vec![
        (2, "h", ConstValue::int(16, 0xbeef)),
        (2, "x", int(65, "36893488147419103231")),
        (5, "b", ConstValue::int(1, 1)),
        (5, "w", ConstValue::int(64, u64::MAX - 3)),
        (9, "y", int(80, "1208925819614629174706175")),
        (9, "l", ConstValue::Logic(LogicVector::from_str("XXZZ0011").unwrap())),
        (17, "a", ConstValue::Array(vec![byte(1), byte(2), byte(3), byte(4)])),
        (17, "st", ConstValue::Struct(vec![byte(9), ConstValue::int(32, 77)])),
        (18, "hq", ConstValue::int(16, 7)),
        (40, "h", ConstValue::int(16, 0)),
        (41, "x", int(65, "1")),
    ]
}

/// One scripted run: its final trace, the peeks after every step, and
/// the blob of every cut.
struct Run {
    trace: Vec<TraceEvent>,
    peeks: Vec<Vec<ConstValue>>,
    blobs: Vec<Vec<u8>>,
}

fn run(module: &Module, engine: EngineKind, cuts: &[usize]) -> Run {
    run_from(module, engine, cuts, None)
}

/// [`run`], resumed at step `from.0` from the blob `from.1` when given.
fn run_from(
    module: &Module,
    engine: EngineKind,
    cuts: &[usize],
    from: Option<(usize, &EngineState)>,
) -> Run {
    let build = || {
        SimSession::builder(module, "top")
            .engine(engine)
            .until_nanos(80)
            .build()
            .unwrap()
    };
    let mut session = build();
    let first = match from {
        Some((step, state)) => {
            session.restore(state).unwrap();
            step
        }
        None => {
            session.initialize().unwrap();
            0
        }
    };
    let (mut peeks, mut blobs) = (vec![], vec![]);
    for step in first..STEPS {
        if cuts.contains(&step) {
            let state = session.checkpoint().unwrap();
            blobs.push(state.as_bytes().to_vec());
            session = build();
            session.restore(&state).unwrap();
        }
        for (_, name, value) in pokes().into_iter().filter(|&(at, _, _)| at == step) {
            session.poke(name, value).unwrap();
        }
        if !session.step().unwrap() {
            break;
        }
        peeks.push(SIGNALS.iter().map(|s| session.peek(s).unwrap()).collect());
    }
    let result = session.run().unwrap();
    Run {
        trace: result.trace.events().to_vec(),
        peeks,
        blobs,
    }
}

#[test]
fn word_and_value_signals_agree_across_engines_and_cuts() {
    let module = llhd::assembly::parse_module(MIXED).unwrap();
    llhd::verifier::verify_module(&module).unwrap();
    let reference = run(&module, EngineKind::Interpret, &[]);
    assert_eq!(reference.peeks.len(), STEPS);
    // Every signal changes, so every kind is exercised.
    for (i, name) in SIGNALS.iter().enumerate() {
        assert!(
            reference.peeks.iter().any(|p| p[i] != reference.peeks[0][i]),
            "{name} never changes"
        );
    }
    for engine in [EngineKind::Interpret, EngineKind::Compile] {
        for cuts in [&[][..], &CUTS[..]] {
            let other = run(&module, engine, cuts);
            assert_eq!(other.peeks, reference.peeks, "{engine:?}, cuts {cuts:?}: peeks");
            assert_eq!(other.trace, reference.trace, "{engine:?}, cuts {cuts:?}: trace");
        }
    }
}

/// The blobs of the first cut. Their bodies were written before signals
/// of 64 bits or fewer were kept in machine words: a word is checkpointed
/// as a constant of its signal's width, so the body bytes did not change.
/// The headers are version 3, which carries the design's structural hash
/// in place of version 2's island-plan digest.
const PINNED_INTERPRET: &str = concat!(
    "4c48434b0306696e746572701103d2e1b0e3a0a8bbddb501c0843d01001102010101021001effd02024001c5",
    "ffffffffffffffff01024102ffffffffffffffffff0101025002d1feffffffffffffff01ffff030408070602",
    "030104020305040208012502080100020801250208012506020208012502200181bcc1960b02100100024001",
    "c5ffffffffffffffff0102410299feffffffffffffff01010408070602030104020305040208012502080100",
    "020801250208012506020208012502200181bcc1960b021001c0b80202410200000210010001010101010101",
    "010100010000000000020000000000000000000000000000000000030100000200001001c0843d10c0843d00",
    "000002010101c0843d000001021001c0b802c0843d000002024001c5ffffffffffffffff01c0843d00000302",
    "410299feffffffffffffff0101c0843d000004025002d1feffffffffffffff01ffff03c0843d000005040807",
    "06020301040203c0843d000006050402080125020801000208012502080125c0843d00000706020208012502",
    "200181bcc1960bc0843d010009024001c5ffffffffffffffff01c0843d01000a02410299feffffffffffffff",
    "0101c0843d01000b04080706020301040203c0843d01000c050402080125020801000208012502080125c084",
    "3d01000d06020208012502200181bcc1960bc0843d01000e021001c0b802c0843d010001021001effd02c084",
    "3d010003024102ffffffffffffffffff0101070400e0c65b0000040110021001c0b802000080897a00000508",
    "0002010100010210018071020240018affffffffffffffff0103024102b2fcffffffffffffff010104025002",
    "a2fdffffffffffffff01ffff0305040806070302040103020605040208014a020801250208014a0208012507",
    "06020208014a02200182f882ad0601000201c0843d0200060208021001030a024102ffffffffffffffffff01",
    "010000e0c65b0000070110021001effd02000100000601010132230801c0843d000009020101000a02010101",
    "0b020801000c021001000d022001000e024001000f0241020000100250020000110208012512021001c0b802",
    "1302200181bcc1960b14024001c5ffffffffffffffff011502410299feffffffffffffff010116025002d1fe",
    "ffffffffffffff01ffff03170408060703020401030218040807060203010402032002010101210201010022",
    "02080125230208014a24021001c0b8022502100180712602200181bcc1960b2702200182f882ad0628024001",
    "c5ffffffffffffffff01290240018affffffffffffffff012a02410299feffffffffffffff01012b024102b2",
    "fcffffffffffffff01012c025002d1feffffffffffffff01ffff032d025002a2fdffffffffffffff01ffff03",
    "2e050204080607030204010302040807060203010402032f040806070302040103023005040208014a020801",
    "250208014a020801253106020208014a02200182f882ad060719020101001a0208014a1b02100180711c0220",
    "0182f882ad061d0240018affffffffffffffff011e024102b2fcffffffffffffff01011f025002a2fdffffff",
    "ffffffff01ffff030000041b0b0f010000001001a0c21e0000110201010112021001effd0213024001c5ffff",
    "ffffffffffff0114024102ffffffffffffffffff010115040807060203010402031605040208012502080100",
    "02080125020801251706020208012502200181bcc1960b180210010319021001030002010201010101020101",
    "0100021a0a000201010001021001000202400100030241020000040250020000050408000000000000000006",
    "0208010007022001000805040208010002080100020801000208010009060202080100022001000000",
);
const PINNED_COMPILE: &str = concat!(
    "4c48434b0305626c617a651103d2e1b0e3a0a8bbddb501c0843d01001102010101021001effd02024001c5ff",
    "ffffffffffffff01024102ffffffffffffffffff0101025002d1feffffffffffffff01ffff03040807060203",
    "0104020305040208012502080100020801250208012506020208012502200181bcc1960b02100100024001c5",
    "ffffffffffffffff0102410299feffffffffffffff0101040807060203010402030504020801250208010002",
    "0801250208012506020208012502200181bcc1960b021001c0b8020241020000021001000101010101010101",
    "0100010000000000020000000000000000000000000000000000030100000200001001c0843d10c0843d0000",
    "0002010101c0843d000001021001c0b802c0843d000002024001c5ffffffffffffffff01c0843d0000030241",
    "0299feffffffffffffff0101c0843d000004025002d1feffffffffffffff01ffff03c0843d00000504080706",
    "020301040203c0843d000006050402080125020801000208012502080125c0843d0000070602020801250220",
    "0181bcc1960bc0843d010009024001c5ffffffffffffffff01c0843d01000a02410299feffffffffffffff01",
    "01c0843d01000b04080706020301040203c0843d01000c050402080125020801000208012502080125c0843d",
    "01000d06020208012502200181bcc1960bc0843d01000e021001c0b802c0843d010001021001effd02c0843d",
    "010003024102ffffffffffffffffff0101070400e0c65b0000040110021001c0b802000080897a0000050800",
    "02010100010210018071020240018affffffffffffffff0103024102b2fcffffffffffffff010104025002a2",
    "fdffffffffffffff01ffff0305040806070302040103020605040208014a020801250208014a020801250706",
    "020208014a02200182f882ad0601000201c0843d0200060208021001030a024102ffffffffffffffffff0101",
    "0000e0c65b0000070110021001effd020001000006010132000000000000000001c0843d0000020101000201",
    "0101020801000210010002200100024001000241020000025002000002080125021001c0b80202200181bcc1",
    "960b024001c5ffffffffffffffff0102410299feffffffffffffff0101025002d1feffffffffffffff01ffff",
    "030408060703020401030204080706020301040203000000000000000201010102010100020801250208014a",
    "021001c0b802021001807102200181bcc1960b02200182f882ad06024001c5ffffffffffffffff010240018a",
    "ffffffffffffffff0102410299feffffffffffffff0101024102b2fcffffffffffffff0101025002d1feffff",
    "ffffffffff01ffff03025002a2fdffffffffffffff01ffff03000408060703020401030205040208014a0208",
    "01250208014a0208012506020208014a02200182f882ad0607020101000208014a021001807102200182f882",
    "ad060240018affffffffffffffff01024102b2fcffffffffffffff0101025002a2fdffffffffffffff01ffff",
    "0300001b0000000000000000000000000000000100000001a0c21e000002010101021001effd02024001c5ff",
    "ffffffffffffff01024102ffffffffffffffffff010104080706020301040203050402080125020801000208",
    "01250208012506020208012502200181bcc1960b021001030210010000000201020101010102010101001a02",
    "0101000210010002400100024102000002500200000408000000000000000002080100022001000504020801",
    "0002080100020801000208010006020208010002200100000000000000000000000000000000000000",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn checkpoint_bytes_are_pinned() {
    let module = llhd::assembly::parse_module(MIXED).unwrap();
    for (engine, pinned) in [
        (EngineKind::Interpret, PINNED_INTERPRET),
        (EngineKind::Compile, PINNED_COMPILE),
    ] {
        let blobs = run(&module, engine, &CUTS).blobs;
        assert_eq!(hex(&blobs[0]), pinned, "{engine:?}");
        let bytes = (0..pinned.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&pinned[i..i + 2], 16).unwrap())
            .collect();
        let state = EngineState::from_bytes(bytes).unwrap();
        let resumed = run_from(&module, engine, &[], Some((CUTS[0], &state)));
        let reference = run(&module, engine, &[]);
        assert_eq!(resumed.trace, reference.trace, "{engine:?}");
        assert_eq!(resumed.peeks, reference.peeks[CUTS[0]..], "{engine:?}");
    }
}

/// Drives of values of another type than their signal's: only an
/// unverified module can issue them. A word signal then holds the value
/// like any other signal, until an integer of its own width comes back.
const MISMATCHED: &str = r#"
proc @p () -> (i16$ %h, [2 x i8]$ %a, i80$ %y) {
entry:
    %d = const time 1ns
    %v8 = const i8 5
    %v32 = const i32 70000
    %z8 = const i8 0
    %k16 = const i16 9
    %v80 = const i80 3
    %arr = array [%v8, %z8]
    drv i16$ %h, %v8 after %d
    drv i80$ %y, %v8 after %d
    wait %s1 for %d
s1:
    drv i16$ %h, %v32 after %d
    drv [2 x i8]$ %a, %v8 after %d
    wait %s2 for %d
s2:
    drv i16$ %h, %arr after %d
    drv i80$ %y, %v80 after %d
    wait %s3 for %d
s3:
    drv i16$ %h, %k16 after %d
    drv i16$ %h, %k16 after %d
    wait %s4 for %d
s4:
    halt
}

entity @top () -> () {
    %z8 = const i8 0
    %z16 = const i16 0
    %z80 = const i80 0
    %za = array [%z8, %z8]
    %h = sig i16 %z16
    %a = sig [2 x i8] %za
    %y = sig i80 %z80
    inst @p () -> (%h, %a, %y)
}
"#;

#[test]
fn drives_of_another_type_apply_alike_on_both_engines() {
    let module = llhd::assembly::parse_module(MISMATCHED).unwrap();
    assert!(llhd::verifier::verify_module(&module).is_err());
    let mut runs = vec![];
    for engine in [EngineKind::Interpret, EngineKind::Compile] {
        let build = || {
            SimSession::builder(&module, "top")
                .engine(engine)
                .until_nanos(20)
                .build()
                .unwrap()
        };
        let mut session = build();
        let mut peeks = vec![];
        while session.step().unwrap() {
            peeks.push(["h", "a", "y"].map(|s| session.peek(s).unwrap()));
            if session.peek("h").unwrap() == ConstValue::int(32, 70000) {
                // A blob holding a value of another type than its
                // signal's is rejected, not restored.
                let state = session.checkpoint().unwrap();
                let error = build().restore(&state).unwrap_err();
                assert!(error.to_string().contains("signal's type"), "{error}");
            }
        }
        assert_eq!(session.peek("h").unwrap(), ConstValue::int(16, 9));
        runs.push((peeks, session.finish().unwrap().trace.events().to_vec()));
    }
    let values: Vec<_> = runs[0].0.iter().map(|p| p[0].clone()).collect();
    assert!(values.contains(&ConstValue::int(8, 5)), "{values:?}");
    assert!(values.contains(&ConstValue::Array(vec![ConstValue::int(8, 5), ConstValue::int(8, 0)])));
    assert_eq!(runs[0], runs[1]);
}
