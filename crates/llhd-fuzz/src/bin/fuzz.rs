//! The differential fuzzing driver.
//!
//! Modes:
//!
//! * default — generate and run cases: `fuzz --seed 1 --cases 200
//!   [--budget-secs 60] [--artifact-dir DIR] [--matrix spec,spec,...]`.
//!   On divergence the case is shrunk, a replay artifact is written, a
//!   ready-to-run replay command is printed, and the exit code is 1.
//! * `--replay FILE...` — replay artifacts; exit 1 if any still
//!   diverges (this is what the committed regression corpus runs).
//! * `--pin SEED --out FILE` — find a case at or after SEED whose design
//!   and schedule cover the interesting machinery (a drive race, a
//!   checkpoint cut, a poke), shrink it under that coverage predicate,
//!   and write it as an artifact. This exercises the exact
//!   shrink-and-emit path a real divergence takes, and seeds the
//!   regression corpus while the engines agree.
//! * `--promote FILE [--corpus-dir DIR]` — copy an artifact into the
//!   committed regression corpus under its canonical name.
//!
//! Exit codes: 0 clean, 1 divergence, 2 usage error, 3 internal error
//! (generator bug, I/O).

use llhd_fuzz::{
    case_seed, default_matrix, promote, run_case, shrink_case, Artifact, CaseFailure, DesignPlan,
    EngineSpec, Schedule,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Options {
    seed: u64,
    cases: u64,
    budget_secs: u64,
    artifact_dir: PathBuf,
    matrix: Vec<EngineSpec>,
    replay: Vec<PathBuf>,
    promote: Option<PathBuf>,
    corpus_dir: PathBuf,
    pin: Option<u64>,
    out: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: fuzz [--seed N] [--cases N] [--budget-secs N] [--artifact-dir DIR] [--matrix s1,s2,..]\n\
    \x20      fuzz --replay FILE...\n\
    \x20      fuzz --pin SEED --out FILE\n\
    \x20      fuzz --promote FILE [--corpus-dir DIR]\n\
    specs: interp | blaze"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        seed: 1,
        cases: 100,
        budget_secs: 0,
        artifact_dir: PathBuf::from("target/fuzz-artifacts"),
        matrix: default_matrix(),
        replay: Vec::new(),
        promote: None,
        corpus_dir: PathBuf::from("crates/llhd-designs/tests/corpus"),
        pin: None,
        out: None,
    };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => opts.seed = parse_u64(&value(&mut it, "--seed")?)?,
            "--cases" => opts.cases = parse_u64(&value(&mut it, "--cases")?)?,
            "--budget-secs" => opts.budget_secs = parse_u64(&value(&mut it, "--budget-secs")?)?,
            "--artifact-dir" => opts.artifact_dir = value(&mut it, "--artifact-dir")?.into(),
            "--matrix" => {
                opts.matrix = value(&mut it, "--matrix")?
                    .split(',')
                    .map(|s| {
                        EngineSpec::parse(s.trim()).ok_or(format!("bad engine spec: {s}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--replay" => {
                opts.replay.extend(it.clone().map(PathBuf::from));
                if opts.replay.is_empty() {
                    return Err("--replay needs at least one file".into());
                }
                break;
            }
            "--promote" => opts.promote = Some(value(&mut it, "--promote")?.into()),
            "--corpus-dir" => opts.corpus_dir = value(&mut it, "--corpus-dir")?.into(),
            "--pin" => opts.pin = Some(parse_u64(&value(&mut it, "--pin")?)?),
            "--out" => opts.out = Some(value(&mut it, "--out")?.into()),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(opts)
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    };
    parsed.ok_or(format!("bad number: {s}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    if !opts.replay.is_empty() {
        return replay_files(&opts);
    }
    if let Some(path) = &opts.promote {
        return promote_file(path, &opts.corpus_dir);
    }
    if let Some(pin_seed) = opts.pin {
        let Some(out) = &opts.out else {
            eprintln!("error: --pin needs --out FILE");
            return ExitCode::from(2);
        };
        return pin_case(pin_seed, out, &opts.matrix);
    }
    fuzz_loop(&opts)
}

fn fuzz_loop(opts: &Options) -> ExitCode {
    let start = Instant::now();
    let mut ran = 0u64;
    for case in 0..opts.cases {
        if opts.budget_secs > 0 && start.elapsed().as_secs() >= opts.budget_secs {
            println!(
                "budget of {}s exhausted after {ran} cases (all clean so far)",
                opts.budget_secs
            );
            break;
        }
        let cs = case_seed(opts.seed, case);
        let plan = DesignPlan::generate(cs);
        let (design, module) = match plan.build() {
            Ok(built) => built,
            Err(e) => {
                eprintln!("internal: case {case} (seed {cs:#018x}) failed to build: {e}");
                return ExitCode::from(3);
            }
        };
        let schedule = Schedule::generate(cs ^ 0x5711_u64, &design);
        match run_case(&module, &design, &schedule, &opts.matrix) {
            Ok(_) => ran += 1,
            Err(CaseFailure::Generator(msg)) => {
                eprintln!("internal: case {case} (seed {cs:#018x}): generator bug: {msg}");
                return ExitCode::from(3);
            }
            Err(CaseFailure::Divergence(divergence)) => {
                return report_divergence(opts, case, cs, &plan, &schedule, &divergence);
            }
        }
    }
    println!(
        "clean: {ran} cases x {} engines (base seed {:#018x}, {:.1}s)",
        opts.matrix.len() + 1,
        opts.seed,
        start.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}

fn report_divergence(
    opts: &Options,
    case: u64,
    cs: u64,
    plan: &DesignPlan,
    schedule: &Schedule,
    divergence: &llhd_fuzz::Divergence,
) -> ExitCode {
    eprintln!(
        "DIVERGENCE at case {case} (seed {cs:#018x}) on {}: {} mismatch: {}",
        divergence.spec.label(),
        divergence.channel,
        divergence.detail
    );
    eprintln!("shrinking...");
    let matrix = opts.matrix.clone();
    let (small_plan, small_schedule, stats) = shrink_case(
        plan,
        schedule,
        |p, s| {
            let Ok((design, module)) = p.build() else {
                return false;
            };
            matches!(
                run_case(&module, &design, s, &matrix),
                Err(CaseFailure::Divergence(_))
            )
        },
        400,
    );
    eprintln!(
        "shrunk: {} accepted / {} attempts",
        stats.accepted, stats.attempts
    );
    let (small_design, _) = match small_plan.build() {
        Ok(built) => built,
        Err(_) => plan.build().expect("original plan built before"),
    };
    let artifact = Artifact::new(
        opts.seed,
        case,
        Some(divergence.spec),
        &format!("{} mismatch: {}", divergence.channel, divergence.detail),
        &small_design,
        &small_schedule,
    );
    if let Err(e) = std::fs::create_dir_all(&opts.artifact_dir) {
        eprintln!("internal: cannot create {}: {e}", opts.artifact_dir.display());
        return ExitCode::from(3);
    }
    let path = opts.artifact_dir.join(artifact.suggested_file_name());
    if let Err(e) = std::fs::write(&path, artifact.to_string()) {
        eprintln!("internal: cannot write {}: {e}", path.display());
        return ExitCode::from(3);
    }
    eprintln!("artifact: {}", path.display());
    eprintln!("replay:   cargo run --release -p llhd-fuzz --bin fuzz -- --replay {}", path.display());
    eprintln!(
        "          (or re-run the un-shrunk case: fuzz --seed {:#018x} --cases {})",
        opts.seed,
        case + 1
    );
    eprintln!(
        "promote:  cargo run --release -p llhd-fuzz --bin fuzz -- --promote {} # after the engine bug is fixed",
        path.display()
    );
    ExitCode::from(1)
}

fn replay_files(opts: &Options) -> ExitCode {
    let mut diverged = false;
    for path in &opts.replay {
        let artifact = match std::fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|t| Artifact::parse(&t)) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("internal: {}: {e}", path.display());
                return ExitCode::from(3);
            }
        };
        match artifact.replay(&opts.matrix) {
            Ok(_) => println!("{}: clean", path.display()),
            Err(CaseFailure::Generator(msg)) => {
                eprintln!("internal: {}: {msg}", path.display());
                return ExitCode::from(3);
            }
            Err(CaseFailure::Divergence(d)) => {
                eprintln!(
                    "{}: still diverges on {}: {} mismatch: {}",
                    path.display(),
                    d.spec.label(),
                    d.channel,
                    d.detail
                );
                diverged = true;
            }
        }
    }
    if diverged {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn promote_file(path: &Path, corpus_dir: &Path) -> ExitCode {
    let artifact = match std::fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|t| Artifact::parse(&t)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("internal: {}: {e}", path.display());
            return ExitCode::from(3);
        }
    };
    match promote(&artifact, corpus_dir) {
        Ok(dest) => {
            println!("promoted {} -> {}", path.display(), dest.display());
            println!("commit it: the corpus test replays every .replay file there on each run");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("internal: promote failed: {e}");
            ExitCode::from(3)
        }
    }
}

/// Coverage predicate for `--pin`: the case touches a drive race, a
/// checkpoint cut, and a poke, and the whole matrix agrees on it.
fn covers(plan: &DesignPlan, schedule: &Schedule, matrix: &[EngineSpec]) -> bool {
    if !plan.clusters.iter().any(|c| !c.racers.is_empty()) {
        return false;
    }
    if schedule.checkpoints() == 0 || schedule.pokes() == 0 {
        return false;
    }
    let Ok((design, module)) = plan.build() else {
        return false;
    };
    run_case(&module, &design, schedule, matrix).is_ok()
}

fn pin_case(pin_seed: u64, out: &Path, matrix: &[EngineSpec]) -> ExitCode {
    // Scan forward from the requested seed for a covering case.
    let found = (0..4096u64).map(|i| case_seed(pin_seed, i)).find_map(|cs| {
        let plan = DesignPlan::generate(cs);
        let design = plan.emit();
        let schedule = Schedule::generate(cs ^ 0x5711_u64, &design);
        covers(&plan, &schedule, matrix).then_some((cs, plan, schedule))
    });
    let Some((cs, plan, schedule)) = found else {
        eprintln!("internal: no covering case within 4096 tries of seed {pin_seed:#018x}");
        return ExitCode::from(3);
    };
    println!("pinning case seed {cs:#018x} (from base {pin_seed:#018x})");
    let (small_plan, small_schedule, stats) = shrink_case(
        &plan,
        &schedule,
        |p, s| covers(p, s, matrix),
        400,
    );
    println!(
        "shrunk: {} accepted / {} attempts",
        stats.accepted, stats.attempts
    );
    let (design, _) = match small_plan.build() {
        Ok(built) => built,
        Err(e) => {
            eprintln!("internal: shrunk plan no longer builds: {e}");
            return ExitCode::from(3);
        }
    };
    let artifact = Artifact::new(
        pin_seed,
        0,
        None,
        "pinned coverage case: drive race + checkpoint cut + poke, all engines agree",
        &design,
        &small_schedule,
    );
    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("internal: cannot create {}: {e}", parent.display());
                return ExitCode::from(3);
            }
        }
    }
    if let Err(e) = std::fs::write(out, artifact.to_string()) {
        eprintln!("internal: cannot write {}: {e}", out.display());
        return ExitCode::from(3);
    }
    println!("pinned artifact: {}", out.display());
    ExitCode::SUCCESS
}
