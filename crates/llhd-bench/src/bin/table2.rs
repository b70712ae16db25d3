//! Regenerates Table 2: simulation performance of the ten benchmark
//! designs, comparing the reference interpreter (LLHD-Sim), the compiled
//! simulator (LLHD-Blaze), and the baseline (compiled simulation of the
//! optimized module, standing in for the commercial simulator).
//!
//! Usage: `table2 [cycles]` (default: 100 clock cycles per design),
//! `table2 --paper-cycles` (the per-design cycle counts of the paper,
//! 1 M–12.6 M: several minutes), or `table2 --scale N` (the paper's counts
//! divided by `N`); any other argument exits 2 with a usage line. Every
//! testbench is built for the cycles it is timed over. The output starts
//! with a line naming the host.

use llhd_bench::report::{host_stamp, render_table2};
use llhd_bench::{table2_rows, table2_rows_scaled};

fn main() {
    let mut args = std::env::args().skip(1);
    let rows = match args.next().as_deref() {
        Some("--paper-cycles") => table2_rows_scaled(1),
        Some("--scale") => match args.next().and_then(|s| s.parse().ok()) {
            Some(scale) => table2_rows_scaled(scale),
            None => {
                eprintln!("table2: --scale takes a positive integer");
                std::process::exit(2);
            }
        },
        None => table2_rows(100),
        Some(arg) => match arg.parse() {
            Ok(cycles) => table2_rows(cycles),
            Err(_) => {
                eprintln!("usage: table2 [cycles | --paper-cycles | --scale N]");
                std::process::exit(2);
            }
        },
    };
    println!("{}", host_stamp());
    print!("{}", render_table2(&rows));
}
