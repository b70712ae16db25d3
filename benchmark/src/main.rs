//! The repo benchmark. See `README.md` for the definitions.
//!
//! ```text
//! llhd-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! llhd-benchmark [--quick] [--seed N] [--seconds S] [--repeat R] [--out PATH]
//!                                                one set: every workload, untraced (R seeds) then traced
//! llhd-benchmark compare A.json B.json                           two sets against the bounds
//! llhd-benchmark --bless                                         regenerate golden/digests.txt
//! llhd-benchmark manifest                                        print BENCHMARK.json
//! ```

mod client;
mod cold_suite;
mod golden;
mod harness;
mod inputs;
mod long_run;
mod lower;
mod metrics;
mod serve;
mod set;
mod spans;
mod stats;

use golden::Golden;
use harness::{Ctx, Report};
use llhd_sim::api::EngineKind;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The seed of the committed golden answers and of a set run without
/// `--seed`.
pub const DEFAULT_SEED: u64 = 7;

/// Where span files and result documents go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    bless: bool,
    repeat: usize,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        bless: false,
        repeat: 1,
        out: None,
        positional: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{} needs a value", name));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|_| "--repeat takes a whole number")?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--quick" => args.quick = true,
            "--bless" => args.bless = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {}", flag)),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

pub(crate) fn dispatch(name: &str, ctx: &mut Ctx) -> Report {
    match name {
        "long-run-interp" => long_run::run(ctx, EngineKind::Interpret),
        "long-run-blaze" => long_run::run(ctx, EngineKind::Compile),
        "cold-suite" => cold_suite::run(ctx),
        "lower" => lower::run(ctx),
        "serve-warm" => serve::run(ctx, serve::Kind::Warm),
        "serve-trace" => serve::run(ctx, serve::Kind::Trace),
        "serve-churn" => serve::run(ctx, serve::Kind::Churn),
        "route-warm" => serve::run(ctx, serve::Kind::Route),
        _ => unreachable!("checked against metrics::WORKLOADS"),
    }
}

/// One run of one workload: print every metric by name with its unit, then
/// the driver's result object as the last line.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(metrics::RUN_SECONDS as f64),
        trace: args.trace,
        golden: Golden::load(false),
        epoch: Instant::now(),
    };
    let mut report = dispatch(name, &mut ctx);
    let listed = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    if args.trace {
        // Set-up is timed the same way on both kinds of run; only the
        // untraced one reports it.
        report
            .metrics
            .retain(|k, _| !metrics::END_TO_END.iter().any(|m| m.name == k));
    } else {
        report.set("peak_rss_mb", harness::peak_rss_mb());
    }
    if let Some(unknown) = report
        .metrics
        .keys()
        .find(|k| !listed.iter().any(|m| m.name == *k))
    {
        panic!(
            "{} reports `{}`, which metrics.rs does not list",
            name, unknown
        );
    }
    if args.trace {
        if let Err(e) = set::write_out(
            &format!("{}.spans.json", name),
            &spans::to_json(name, &report.spans, report.spans_dropped),
        ) {
            eprintln!("cannot write the span file: {}", e);
            return ExitCode::FAILURE;
        }
    }
    println!(
        "# {} seed={} seconds={} trace={} nproc={}",
        name,
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for note in &report.notes {
        println!("# {}", note);
    }
    for failure in &report.failures {
        eprintln!("FAILED {}", failure);
    }
    let mut fields = Vec::new();
    for m in listed {
        // A layer the workload's measured section never calls reads 0.
        let value = match report.metrics.get(m.name) {
            Some(&v) if v.is_finite() => v,
            // Not a number the result object can carry.
            Some(&v) => {
                report.fail(format!("{} is {}", m.name, v));
                0.0
            }
            None if args.trace => 0.0,
            None => panic!("{} did not report `{}`", name, m.name),
        };
        let samples = report
            .samples
            .get(m.name)
            .map_or(String::new(), |n| format!("  (n={})", n));
        println!("{:<34} {:>16.4} {}{}", m.name, value, m.unit, samples);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        ));
    }
    println!("attempted {} failed {}", report.attempted, report.failed);
    // For the set's result document; the driver reads the last line only.
    println!(
        "#samples {{{}}}",
        report
            .samples
            .iter()
            .map(|(k, n)| format!("\"{}\": {}", k, n))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("llhd-benchmark: {}", message);
            return ExitCode::from(2);
        }
    };
    match args.positional.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            return match args.positional.as_slice() {
                [_, a, b] => set::compare(a.as_ref(), b.as_ref()),
                _ => {
                    eprintln!("usage: llhd-benchmark compare A.json B.json");
                    ExitCode::from(2)
                }
            };
        }
        Some(other) => {
            eprintln!("llhd-benchmark: unknown command {}", other);
            return ExitCode::from(2);
        }
        None => {}
    }
    if args.bless {
        return set::bless();
    }
    match &args.workload {
        Some(name) if metrics::workload(name).is_some() => run_one(name, &args),
        Some(name) => {
            eprintln!(
                "llhd-benchmark: unknown workload {}; one of: {}",
                name,
                metrics::WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            ExitCode::from(2)
        }
        None => set::run_set(args.seed, args.seconds, args.quick, args.repeat, args.out),
    }
}
