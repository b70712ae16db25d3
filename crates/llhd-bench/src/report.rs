//! Text rendering of the paper's tables and figures.
//!
//! The `table2`/`table3`/`table4`/`figure5` binaries are thin wrappers
//! around these functions so the artifact-generation logic itself is
//! exercised by the test suite and cannot silently rot.

use crate::{fmt_duration, Table2Row, Table4Row};
use llhd::capabilities::IrCapabilities;
use std::fmt::Write;

/// One line naming the host a table was measured on: CPU model, core
/// count and compiler. Wall-clock columns mean nothing without it.
pub fn host_stamp() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown rustc".to_string());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("Host: {}, {} core(s), {}", cpu, cores, rustc)
}

/// Render the Table 2 reproduction (simulation performance).
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    writeln!(out, "Table 2: simulation performance (this reproduction)").unwrap();
    writeln!(
        out,
        "{:<16} {:>5} {:>9} {:>10} {:>10} {:>10} {:>8} {:>7}",
        "Design", "LoC", "Cycles", "Int.", "Blaze", "Baseline", "Int/Blz", "Trace"
    )
    .unwrap();
    for row in rows {
        writeln!(
            out,
            "{:<16} {:>5} {:>9} {} {} {} {:>7.1}x {:>7}",
            row.design,
            row.loc,
            row.cycles,
            fmt_duration(row.interpreter),
            fmt_duration(row.blaze),
            fmt_duration(row.baseline),
            row.interpreter_slowdown(),
            if row.traces_match { "match" } else { "DIFFER" },
        )
        .unwrap();
    }
    let all_match = rows.iter().all(|r| r.traces_match);
    writeln!(out).unwrap();
    writeln!(
        out,
        "Traces {} between all engines; interpreter is {:.1}x slower than the compiled simulator on average.",
        if all_match { "match" } else { "DO NOT match" },
        rows.iter().map(|r| r.interpreter_slowdown()).sum::<f64>() / rows.len().max(1) as f64
    )
    .unwrap();
    out
}

fn yes(value: bool) -> &'static str {
    if value {
        "yes"
    } else {
        "-"
    }
}

/// Render the Table 3 reproduction (IR capability comparison).
pub fn render_table3(rows: &[IrCapabilities]) -> String {
    let mut out = String::new();
    writeln!(out, "Table 3: comparison against other hardware-targeted IRs").unwrap();
    writeln!(
        out,
        "{:<10} {:>6} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7}",
        "IR", "Levels", "Turing", "Verif", "9-val", "4-val", "Behav", "Struct", "Netlist"
    )
    .unwrap();
    for row in rows {
        writeln!(
            out,
            "{:<10} {:>6} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7}",
            row.name,
            row.levels,
            yes(row.turing_complete),
            yes(row.verification),
            yes(row.nine_valued_logic),
            yes(row.four_valued_logic),
            yes(row.behavioural),
            yes(row.structural),
            yes(row.netlist),
        )
        .unwrap();
    }
    out
}

fn kb(bytes: usize) -> f64 {
    bytes as f64 / 1024.0
}

/// Render the Table 4 reproduction (size efficiency).
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    writeln!(out, "Table 4: size efficiency [kB]").unwrap();
    writeln!(
        out,
        "{:<16} {:>8} {:>9} {:>9} {:>9} {:>12}",
        "Design", "SV", "Text", "Bitcode", "In-Mem.", "Text/Bitcode"
    )
    .unwrap();
    for row in rows {
        writeln!(
            out,
            "{:<16} {:>8.1} {:>9.1} {:>9.1} {:>9.1} {:>11.2}x",
            row.design,
            kb(row.sv_bytes),
            kb(row.text_bytes),
            kb(row.bitcode_bytes),
            kb(row.in_memory_bytes),
            row.text_bytes as f64 / row.bitcode_bytes.max(1) as f64,
        )
        .unwrap();
    }
    let text: usize = rows.iter().map(|r| r.text_bytes).sum();
    let bitcode: usize = rows.iter().map(|r| r.bitcode_bytes).sum();
    writeln!(out).unwrap();
    writeln!(
        out,
        "Bitcode is {:.1}x denser than the human-readable text overall.",
        text as f64 / bitcode.max(1) as f64
    )
    .unwrap();
    out
}

/// Render the Figure 5 reproduction (the accumulator lowering end-to-end).
pub fn render_figure5() -> String {
    let (behavioural, structural, report) = crate::figure5_stages();
    let mut out = String::new();
    writeln!(out, "=== SystemVerilog input (Figure 3) ===").unwrap();
    writeln!(out, "{}", llhd_designs::accumulator_source()).unwrap();
    writeln!(
        out,
        "=== Behavioural LLHD (Moore output, left column of Figure 5) ==="
    )
    .unwrap();
    writeln!(out, "{}", behavioural).unwrap();
    writeln!(out, "=== Structural LLHD (right column of Figure 5) ===").unwrap();
    writeln!(out, "{}", structural).unwrap();
    writeln!(out, "=== Lowering report ===").unwrap();
    writeln!(
        out,
        "process lowering: {}, desequentialization: {}, inlined calls: {}, rejected (testbench) processes: {:?}",
        report.lowered_processes,
        report.desequentialized_processes,
        report.inlined_calls,
        report.rejected
    )
    .unwrap();
    out
}
