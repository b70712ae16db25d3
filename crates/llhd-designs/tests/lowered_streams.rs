//! The instruction streams blaze executes for the benchmarked designs,
//! pinned. For each of the ten paper designs and the two `long-run`
//! generated shapes this records the total number of specialized ops
//! over every instance and function, a census of the `SuperOp` variants
//! that occur, and the sum of `unit_stats()`'s `base_ops`. A change to how
//! blaze compiles, folds or fuses that alters what any of these designs
//! executes shows here as a census diff.
//!
//! The census also pins the value forms (`Bin`, `Prb`, `Drv`, …): every
//! op of these designs computes in machine words.

use llhd::ir::Module;
use llhd_designs::{all_designs, fir_bank, noc_mesh};
use std::collections::BTreeMap;

/// One line per design: `ops=<specialized ops> base_ops=<sum> | <variant> <count>, …`.
fn streams(module: &Module, top: &str) -> String {
    let design = llhd_sim::elaborate(module, top).expect("elaborates");
    let compiled = llhd_sim::blaze::compile_design(module, design).expect("compiles");
    let mut census: BTreeMap<String, usize> = BTreeMap::new();
    let codes = compiled
        .instances
        .iter()
        .map(|instance| &*instance.code)
        .chain(compiled.functions.values());
    let mut ops = 0;
    for code in codes {
        for op in &code.ops {
            let debug = format!("{:?}", op);
            let variant = debug
                .split(|c: char| !c.is_ascii_alphanumeric())
                .next()
                .unwrap_or_default();
            *census.entry(variant.to_string()).or_default() += 1;
            ops += 1;
        }
    }
    let base_ops: usize = compiled.unit_stats().iter().map(|s| s.base_ops).sum();
    let census: Vec<String> = census
        .iter()
        .map(|(name, n)| format!("{} {}", name, n))
        .collect();
    format!("ops={} base_ops={} | {}", ops, base_ops, census.join(", "))
}

/// Recorded while blaze still had value-form fusions (`Sel`, `CmpBr`,
/// `BinDrv`), and unchanged by their removal: none of these designs ran
/// one.
const PINNED: &[(&str, &str)] = &[
    ("Gray Enc./Dec.", "ops=44 base_ops=47 | Br 2, Halt 1, WBin 10, WCast 14, WCmpBr 1, WDrv 6, WLd 1, WPrb 5, WSt 2, Wait 2"),
    ("FIR Filter", "ops=47 base_ops=50 | Br 3, Halt 1, WBin 9, WCast 7, WCmpBr 1, WDrv 8, WLd 1, WPrb 13, WSt 2, Wait 2"),
    ("LFSR", "ops=44 base_ops=52 | Br 3, Halt 1, WBin 9, WBinDrv 1, WCast 3, WCmpBr 1, WDrv 8, WExtS 4, WLd 1, WPrb 7, WSt 2, WUn 1, Wait 3"),
    ("Leading Zero C.", "ops=36 base_ops=56 | Br 2, Halt 1, WBin 2, WCast 2, WCmpBr 1, WDrv 4, WExtS 8, WLd 1, WPrb 3, WSel 8, WSt 2, Wait 2"),
    ("FIFO Queue", "ops=50 base_ops=56 | Br 3, WBin 9, WBinDrv 1, WBrCond 1, WCast 2, WDrv 6, WLd 5, WPrb 6, WSel 5, WSt 10, Wait 2"),
    ("CDC (Gray)", "ops=48 base_ops=53 | Br 4, Halt 1, WBin 8, WCast 5, WCmpBr 1, WDrv 9, WLd 1, WPrb 13, WSt 2, Wait 4"),
    ("CDC (strobe)", "ops=49 base_ops=55 | Br 4, Halt 1, WBin 9, WCast 2, WCmpBr 1, WDrv 11, WLd 1, WPrb 14, WSt 2, WUn 1, Wait 3"),
    ("RR Arbiter", "ops=61 base_ops=99 | Br 3, Halt 1, WBin 5, WCast 3, WCmpBr 1, WDrv 6, WExtS 8, WLd 1, WPrb 10, WSel 18, WSt 2, Wait 3"),
    ("Stream Delayer", "ops=42 base_ops=46 | Br 3, Halt 1, WBin 4, WCast 2, WCmpBr 1, WDrv 12, WLd 1, WPrb 14, WSt 2, Wait 2"),
    ("RISC-V Core", "ops=22 base_ops=24 | Br 1, WBin 8, WBrCond 1, WDrv 4, WPrb 4, WSel 2, Wait 2"),
    ("fir-bank-16x32-s7", "ops=2594 base_ops=2610 | Br 48, WBin 802, WBinDrv 16, WBrCond 16, WDrv 48, WLd 528, WPrb 48, WSt 1056, Wait 32"),
    ("noc-mesh-8x8-s11", "ops=1160 base_ops=208 | Br 136, WBin 200, WBrCond 64, WDrv 88, WLd 136, WPrb 192, WSt 272, Wait 72"),
];

#[test]
fn executed_streams_are_pinned() {
    let mut actual = Vec::new();
    for design in all_designs() {
        let module = design.build().expect("builds");
        actual.push((design.name.to_string(), streams(&module, design.top)));
    }
    for generated in [fir_bank(16, 32, 7), noc_mesh(8, 8, 11)] {
        let module = generated.build().expect("builds");
        actual.push((generated.name.clone(), streams(&module, &generated.top)));
    }
    let rendered: Vec<String> = actual
        .iter()
        .map(|(name, line)| format!("    ({:?}, {:?}),", name, line))
        .collect();
    let pinned: Vec<(String, String)> = PINNED
        .iter()
        .map(|&(name, line)| (name.to_string(), line.to_string()))
        .collect();
    assert_eq!(actual, pinned, "actual streams:\n{}", rendered.join("\n"));
}
