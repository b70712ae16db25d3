//! A set of runs: every workload untraced, then traced, each run its own OS
//! process; the result document; `compare`; `--bless`.

use crate::golden::Golden;
use crate::harness::Ctx;
use crate::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats::median;
use crate::DEFAULT_SEED;
use llhd_server::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

pub fn write_out(name: &str, content: &str) -> std::io::Result<PathBuf> {
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, content)?;
    Ok(path)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn host(seed: u64, seconds: f64, repeat: usize) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        (
            "nproc",
            Json::uint(std::thread::available_parallelism().map_or(1, |n| n.get()) as u128),
        ),
        ("cpu_model", Json::str(cpu)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::uint(seed as u128)),
        ("seconds", Json::Float(seconds)),
        ("repeat", Json::uint(repeat as u128)),
    ])
}

/// One child run: the driver's result object and the sample counts.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload, output.status));
    }
    let mut samples = Json::Obj(Vec::new());
    let mut last = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("#samples ") {
            samples = Json::parse(rest)?;
        } else {
            println!("{}", line);
        }
        last = Some(line);
    }
    let result = Json::parse(last.ok_or("no output")?)?;
    Ok((result, samples))
}

/// Run the whole set and write the result document.
pub fn run_set(
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
    repeat: usize,
    out: Option<PathBuf>,
) -> ExitCode {
    // `--quick`: every workload, about ten seconds in all, no percentiles
    // worth reading; it exists so the harness cannot rot.
    let seconds = seconds.unwrap_or(if quick { 0.4 } else { RUN_SECONDS as f64 });
    let started = Instant::now();
    let mut workloads = Vec::new();
    let mut failed_runs = 0;
    for workload in WORKLOADS {
        let mut entry = vec![("why".to_string(), Json::str(workload.why))];
        for trace in [false, true] {
            let listed = if trace { PER_LAYER } else { END_TO_END };
            // Repeats vary the seed, as the acceptance procedure does.
            let runs = if trace { 1 } else { repeat };
            let mut values: Vec<Vec<f64>> = vec![Vec::new(); listed.len()];
            let (mut attempted, mut failed, mut sample_counts) = (0, 0, Json::Obj(Vec::new()));
            for r in 0..runs {
                match child(workload.name, seed + r as u64, seconds, trace) {
                    Ok((result, samples)) => {
                        attempted += result.get("attempted").and_then(Json::as_int).unwrap_or(0);
                        failed += result.get("failed").and_then(Json::as_int).unwrap_or(0);
                        sample_counts = samples;
                        for (m, column) in listed.iter().zip(&mut values) {
                            let value = result
                                .get("metrics")
                                .and_then(|v| v.get(m.name))
                                .and_then(|v| v.get("value"));
                            match value {
                                Some(Json::Float(v)) => column.push(*v),
                                Some(Json::Int(v)) => column.push(*v as f64),
                                _ => {}
                            }
                        }
                    }
                    Err(message) => {
                        eprintln!("llhd-benchmark: {}", message);
                        failed_runs += 1;
                    }
                }
            }
            failed_runs += usize::from(failed > 0);
            let metrics = listed
                .iter()
                .zip(&values)
                .filter(|(_, column)| !column.is_empty())
                .map(|(m, column)| {
                    let mut fields = vec![
                        ("value", Json::Float(median(column))),
                        ("unit", Json::str(m.unit)),
                        (
                            "runs",
                            Json::Arr(column.iter().map(|&v| Json::Float(v)).collect()),
                        ),
                    ];
                    if let Some(n) = sample_counts.get(m.name) {
                        fields.push(("samples", n.clone()));
                    }
                    (m.name.to_string(), Json::obj(fields))
                })
                .collect();
            entry.push((
                if trace { "per_layer" } else { "end_to_end" }.to_string(),
                Json::obj([
                    ("attempted", Json::Int(attempted)),
                    ("failed", Json::Int(failed)),
                    ("metrics", Json::Obj(metrics)),
                ]),
            ));
        }
        workloads.push((workload.name.to_string(), Json::Obj(entry)));
    }
    let document = Json::obj([
        ("host", host(seed, seconds, repeat)),
        (
            "model",
            Json::str("unvalidated against any external simulator; no error figure"),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    let text = format!("{}\n", document);
    let written = match out {
        Some(path) => std::fs::write(&path, &text).map(|_| path),
        None => write_out("result.json", &text),
    };
    match written {
        Ok(path) => eprintln!(
            "wrote {} after {:.1} s",
            path.display(),
            started.elapsed().as_secs_f64()
        ),
        Err(e) => {
            eprintln!("llhd-benchmark: cannot write the result document: {}", e);
            return ExitCode::FAILURE;
        }
    }
    if failed_runs > 0 {
        eprintln!(
            "llhd-benchmark: {} runs failed or reported failed operations",
            failed_runs
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Python's `statistics.quantiles(values, n=4)` (the exclusive method):
/// the acceptance procedure's spread is `(q3 - q1) / median`.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

fn runs_of(document: &Json, workload: &str, metric: &str) -> Vec<f64> {
    document
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get("metrics"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("runs"))
        .and_then(Json::as_arr)
        .map(|runs| {
            runs.iter()
                .filter_map(|v| match v {
                    Json::Float(f) => Some(*f),
                    Json::Int(i) => Some(*i as f64),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Each end-to-end metric of set B against set A and its bound, one row
/// per workload. A metric whose run-to-run spread on either side is wider
/// than its bound is `unresolved`, not unchanged.
pub fn compare(a: &Path, b: &Path) -> ExitCode {
    let read = |path: &Path| -> Result<Json, String> {
        Json::parse(
            &std::fs::read_to_string(path).map_err(|e| format!("{}: {}", path.display(), e))?,
        )
    };
    let (a, b) = match (read(a), read(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("llhd-benchmark compare: {}", e);
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<16} {:<15} {:>14} {:>14} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse%", "bound%", "spread%"
    );
    let mut regressions = 0;
    for workload in WORKLOADS {
        for metric in END_TO_END {
            let (runs_a, runs_b) = (
                runs_of(&a, workload.name, metric.name),
                runs_of(&b, workload.name, metric.name),
            );
            if runs_a.is_empty() || runs_b.is_empty() {
                println!(
                    "{:<16} {:<15} missing from one set",
                    workload.name, metric.name
                );
                continue;
            }
            let (med_a, med_b) = (median(&runs_a), median(&runs_b));
            // Positive: B is worse than A by this share of A.
            let worse = if metric.higher {
                (med_a - med_b) / med_a
            } else {
                (med_b - med_a) / med_a
            };
            let spread = [&runs_a, &runs_b]
                .iter()
                .filter_map(|runs| quartiles(runs).map(|(q1, q2, q3)| (q3 - q1) / q2))
                .fold(None, |widest: Option<f64>, s| {
                    Some(widest.map_or(s, |w| w.max(s)))
                });
            let verdict = match spread {
                Some(s) if s > metric.bound => "unresolved",
                _ if worse > metric.bound => {
                    regressions += 1;
                    "REGRESSION"
                }
                Some(_) => "within bound",
                None => "within bound (one run a side: spread unknown)",
            };
            println!(
                "{:<16} {:<15} {:>14.4} {:>14.4} {:>+8.2} {:>7.1} {:>8}  {}",
                workload.name,
                metric.name,
                med_a,
                med_b,
                100.0 * worse,
                100.0 * metric.bound,
                spread.map_or("-".to_string(), |s| format!("{:.2}", 100.0 * s)),
                verdict
            );
        }
    }
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Regenerate `golden/digests.txt` from the interpreter: every workload
/// runs briefly at the default seed with the committed answers ignored,
/// and what each asked the golden file for is collected.
pub fn bless() -> ExitCode {
    let mut all = Golden::load(true);
    for workload in WORKLOADS {
        let mut ctx = Ctx {
            seed: DEFAULT_SEED,
            seconds: 0.2,
            trace: false,
            golden: Golden::load(true),
            epoch: Instant::now(),
        };
        let report = crate::dispatch(workload.name, &mut ctx);
        if report.failed > 0 {
            // With the committed answers out of the picture a failure here
            // is an engine, the server or the router disagreeing with the
            // interpreter: nothing to bless.
            for failure in &report.failures {
                eprintln!("FAILED {}", failure);
            }
            eprintln!(
                "llhd-benchmark: {} disagrees with the interpreter; not blessing",
                workload.name
            );
            return ExitCode::FAILURE;
        }
        all.absorb(ctx.golden);
    }
    match std::fs::write(Golden::path(), all.render()) {
        Ok(()) => {
            eprintln!("wrote {}; rebuild to embed it", Golden::path().display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "llhd-benchmark: cannot write {}: {}",
                Golden::path().display(),
                e
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let (q1, q2, q3) = quartiles(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]).unwrap();
        assert_eq!((q1, q2, q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3., 1., 2.]).unwrap(), (1.0, 2.0, 3.0));
        assert!(quartiles(&[1.0]).is_none());
    }
}
