//! CI regression gate for the benchmark suites.
//!
//! Re-measures the Table 2 simulation suite and the Table 4 serialization
//! suite (the exact loops behind `cargo bench --bench simulation` /
//! `--bench serialization`, shared via [`llhd_bench::suites`]) and
//! compares the fresh medians against the committed `BENCH_simulation.json`
//! and `BENCH_serialization.json` baselines. The comparison tables are
//! printed either way; the process exits non-zero if any benchmark's
//! median regressed by more than the threshold.
//!
//! Flags:
//! * `--quick` — fewer/shorter samples (what `ci.sh` runs; full-length
//!   sampling is the default). Quick samples are noisy on loaded
//!   machines, so any quick-mode regression is re-measured at full
//!   length before the gate fails — only reproducible regressions count.
//! * `--baseline PATH` — compare the *simulation* suite against a
//!   different baseline file (default: the committed `BENCH_simulation.json`
//!   at the workspace root; the serialization suite always gates against
//!   the committed `BENCH_serialization.json`).
//! * `--threshold PCT` — allowed regression in percent (default 20).

use llhd_bench::harness::{default_json_path, BenchConfig, Harness};
use llhd_bench::suites::{serialization_suite, simulation_suite};
use std::time::Duration;

/// Extract `(name, median_ns)` pairs from a `BENCH_*.json` report, which
/// the in-repo harness emits with one benchmark object per line.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = vec![];
    for line in text.lines() {
        let name = match extract_str(line, "\"name\": \"") {
            Some(n) => n,
            None => continue,
        };
        let median = match extract_num(line, "\"median_ns\": ") {
            Some(m) => m,
            None => continue,
        };
        out.push((name, median));
    }
    out
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    // Names produced by the harness never contain escaped quotes.
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:9.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:9.3} us", ns / 1e3)
    } else {
        format!("{:9.0} ns", ns)
    }
}

/// One gated suite: a name, the shared measurement loop, and the baseline
/// to compare against.
struct Suite {
    name: &'static str,
    run: fn(&mut Harness),
    baseline_path: String,
}

/// Gate one suite: measure, compare, and (in quick mode) re-measure any
/// regression at full length before counting it. Returns the reproducible
/// regressions as `(benchmark, ratio)`.
fn gate_suite(suite: &Suite, quick: bool, threshold_pct: f64) -> Vec<(String, f64)> {
    let baseline_text = match std::fs::read_to_string(&suite.baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "bench_gate: cannot read baseline {}: {} — nothing to gate against",
                suite.baseline_path, e
            );
            std::process::exit(2);
        }
    };
    let baseline = parse_baseline(&baseline_text);
    if baseline.is_empty() {
        eprintln!(
            "bench_gate: baseline {} contains no benchmarks",
            suite.baseline_path
        );
        std::process::exit(2);
    }

    let config = if quick {
        BenchConfig {
            warmup: Duration::from_millis(60),
            samples: 5,
            sample_time: Duration::from_millis(30),
            json_path: None,
        }
    } else {
        BenchConfig {
            json_path: None,
            ..BenchConfig::new(suite.name)
        }
    };
    println!(
        "bench_gate: measuring {} suite ({} mode), baseline {}",
        suite.name,
        if quick { "quick" } else { "full" },
        suite.baseline_path
    );
    let mut h = Harness::new(suite.name, config);
    (suite.run)(&mut h);

    println!();
    println!(
        "{:<34} {:>12} {:>12} {:>8}",
        "benchmark", "baseline", "current", "ratio"
    );
    let mut regressions = vec![];
    let limit = 1.0 + threshold_pct / 100.0;
    for result in h.results() {
        let base = baseline
            .iter()
            .find(|(name, _)| name == &result.name)
            .map(|&(_, median)| median);
        match base {
            Some(base) => {
                let ratio = result.median_ns / base.max(1e-9);
                let marker = if ratio > limit { "  REGRESSED" } else { "" };
                println!(
                    "{:<34} {:>12} {:>12} {:>7.2}x{}",
                    result.name,
                    fmt_ns(base),
                    fmt_ns(result.median_ns),
                    ratio,
                    marker
                );
                if ratio > limit {
                    regressions.push((result.name.clone(), ratio));
                }
            }
            None => {
                println!(
                    "{:<34} {:>12} {:>12}     (new)",
                    result.name,
                    "-",
                    fmt_ns(result.median_ns)
                );
            }
        }
    }
    // Quick-mode samples (5 × 30 ms) are noisy on loaded machines; before
    // failing, re-measure just the offending benchmarks at full length
    // and keep only the regressions that persist.
    if !regressions.is_empty() && quick {
        println!(
            "bench_gate: {} regression(s) in quick mode; re-measuring at full length to filter noise",
            regressions.len()
        );
        let mut retry = Harness::new(
            suite.name,
            BenchConfig {
                json_path: None,
                ..BenchConfig::new(suite.name)
            },
        );
        retry.set_filters(regressions.iter().map(|(name, _)| name.clone()).collect());
        (suite.run)(&mut retry);
        regressions = regressions
            .into_iter()
            .filter_map(|(name, quick_ratio)| {
                let full_ratio = retry
                    .results()
                    .iter()
                    .find(|r| r.name == name)
                    .zip(baseline.iter().find(|(b, _)| b == &name))
                    .map(|(r, &(_, base))| r.median_ns / base.max(1e-9));
                match full_ratio {
                    // Report the reproducible full-length ratio, not the
                    // noisy quick-mode one that triggered the retry.
                    Some(ratio) if ratio > limit => Some((name, ratio)),
                    Some(_) => {
                        println!("  {}: not reproducible at full length — noise", name);
                        None
                    }
                    None => Some((name, quick_ratio)),
                }
            })
            .collect();
    }
    println!();
    regressions
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut baseline_path: Option<String> = None;
    let mut threshold_pct = 20.0f64;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => quick = true,
            "--baseline" => {
                baseline_path = argv.get(i + 1).cloned();
                i += 1;
            }
            "--threshold" => match argv.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(t) => {
                    threshold_pct = t;
                    i += 1;
                }
                None => {
                    eprintln!("bench_gate: --threshold requires a number in percent");
                    std::process::exit(2);
                }
            },
            other => eprintln!("bench_gate: ignoring unknown argument {:?}", other),
        }
        i += 1;
    }
    // Serialization first: its microsecond-scale parse/decode loops are
    // allocator-bound, and measured after the simulation suite's servers
    // and thread pools have churned the heap they read ~15% slower than
    // the standalone `cargo bench` run that records their baseline.
    let suites = [
        Suite {
            name: "serialization",
            run: serialization_suite,
            baseline_path: default_json_path("serialization"),
        },
        Suite {
            name: "simulation",
            run: simulation_suite,
            baseline_path: baseline_path.unwrap_or_else(|| default_json_path("simulation")),
        },
    ];
    let mut regressions = vec![];
    for suite in &suites {
        regressions.extend(gate_suite(suite, quick, threshold_pct));
    }

    if regressions.is_empty() {
        println!(
            "bench_gate: OK — no median regressed more than {:.0}% vs the baselines",
            threshold_pct
        );
    } else {
        println!(
            "bench_gate: FAILED — {} benchmark(s) regressed more than {:.0}%:",
            regressions.len(),
            threshold_pct
        );
        for (name, ratio) in &regressions {
            println!("  {}  ({:.2}x the baseline median)", name, ratio);
        }
        std::process::exit(1);
    }
}
