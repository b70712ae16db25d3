//! Self-contained replay artifacts and the promotion path.
//!
//! An artifact is one file that reproduces one fuzz case with *nothing*
//! else: the (usually shrunk) design source, the stimulus schedule, the
//! run horizon, and the provenance (seed, case index, the variant that
//! diverged, why). The format is line-oriented plain text so artifacts
//! diff cleanly in review and can be written by hand:
//!
//! ```text
//! # llhd-fuzz replay artifact
//! format 1
//! seed 0x000000000000002a
//! case 17
//! spec blaze
//! reason trace mismatch at event 5
//! until_ns 154
//! top fuzz_top
//! schedule step 12
//! schedule poke c0_race 16 4660
//! schedule peek c0_l1
//! schedule checkpoint
//! design:
//! <raw LLHD assembly to end of file>
//! ```
//!
//! Promotion copies an artifact into the committed regression corpus
//! (`crates/llhd-designs/tests/corpus/`), where the corpus test replays
//! every `.replay` file across the full engine matrix on every CI run —
//! the loop that turns a fuzz finding into a permanent regression test.

use crate::diff::{run_matrix, CaseFailure, EngineSpec, RunRecord};
use crate::gen::FuzzDesign;
use crate::stim::{mask, Schedule, StimOp};
use std::fmt;
use std::path::{Path, PathBuf};

/// The artifact format version this build reads and writes.
pub const FORMAT: u32 = 1;

/// One self-contained, replayable fuzz case.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Artifact {
    /// The base seed of the fuzz run that found the case.
    pub seed: u64,
    /// The case index within that run.
    pub case: u64,
    /// The engine variant that diverged (label), if any.
    pub spec: Option<String>,
    /// Why the artifact exists (divergence summary, or the pin reason).
    pub reason: String,
    /// The simulation horizon in nanoseconds.
    pub until_ns: u128,
    /// The top entity name.
    pub top: String,
    /// The stimulus schedule.
    pub schedule: Schedule,
    /// The LLHD assembly of the (shrunk) design.
    pub source: String,
}

impl Artifact {
    /// Assemble an artifact from a case's pieces. `reason` is flattened
    /// to one line (the format is line-oriented).
    pub fn new(
        seed: u64,
        case: u64,
        spec: Option<EngineSpec>,
        reason: &str,
        design: &FuzzDesign,
        schedule: &Schedule,
    ) -> Artifact {
        Artifact {
            seed,
            case,
            spec: spec.map(|s| s.label()),
            reason: reason.replace('\n', "; "),
            until_ns: design.until_ns,
            top: design.top.clone(),
            schedule: schedule.clone(),
            source: design.source.clone(),
        }
    }

    /// Parse the text form produced by [`Display`](fmt::Display).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Artifact, String> {
        let mut seed = None;
        let mut case = 0u64;
        let mut spec = None;
        let mut reason = String::new();
        let mut until_ns = None;
        let mut top = None;
        let mut ops = Vec::new();
        let mut lines = text.lines();
        let mut consumed = 0usize;
        for line in lines.by_ref() {
            consumed += line.len() + 1;
            let line = line.trim_end();
            if line == "design:" {
                let seed = seed.ok_or("missing 'seed' line")?;
                let until_ns = until_ns.ok_or("missing 'until_ns' line")?;
                let top = top.ok_or("missing 'top' line")?;
                return Ok(Artifact {
                    seed,
                    case,
                    spec,
                    reason,
                    until_ns,
                    top,
                    schedule: Schedule { ops },
                    source: text[consumed.min(text.len())..].to_string(),
                });
            }
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "format" => {
                    let v: u32 = rest.parse().map_err(|_| format!("bad format: {rest}"))?;
                    if v != FORMAT {
                        return Err(format!("unsupported artifact format {v}"));
                    }
                }
                "seed" => {
                    seed = Some(parse_u64(rest).ok_or_else(|| format!("bad seed: {rest}"))?);
                }
                "case" => {
                    case = rest.parse().map_err(|_| format!("bad case: {rest}"))?;
                }
                "spec" => spec = Some(rest.to_string()),
                "reason" => reason = rest.to_string(),
                "until_ns" => {
                    until_ns = Some(rest.parse().map_err(|_| format!("bad until_ns: {rest}"))?);
                }
                "top" => top = Some(rest.to_string()),
                "schedule" => ops.push(parse_op(rest)?),
                other => return Err(format!("unknown key: {other}")),
            }
        }
        Err("missing 'design:' section".to_string())
    }

    /// The [`FuzzDesign`] view of the artifact, for the differential
    /// driver. The signal list is empty — replay resolves poke/peek
    /// targets from the schedule by name, and no new stimulus is drawn.
    pub fn design(&self) -> FuzzDesign {
        FuzzDesign {
            name: format!("replay-s{:#018x}", self.seed),
            source: self.source.clone(),
            top: self.top.clone(),
            signals: Vec::new(),
            until_ns: self.until_ns,
            min_islands: 1,
        }
    }

    /// Replay the artifact across `matrix` (reference plus variants).
    ///
    /// # Errors
    ///
    /// Exactly [`run_matrix`]'s failures: a [`CaseFailure::Divergence`]
    /// means the artifact still reproduces its finding.
    pub fn replay(&self, matrix: &[EngineSpec]) -> Result<RunRecord, CaseFailure> {
        run_matrix(&self.source, &self.design(), &self.schedule, matrix)
    }

    /// The canonical file name: `s<seed hex>-c<case>.replay`.
    pub fn suggested_file_name(&self) -> String {
        format!("s{:016x}-c{}.replay", self.seed, self.case)
    }
}

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# llhd-fuzz replay artifact")?;
        writeln!(f, "format {FORMAT}")?;
        writeln!(f, "seed {:#018x}", self.seed)?;
        writeln!(f, "case {}", self.case)?;
        if let Some(spec) = &self.spec {
            writeln!(f, "spec {spec}")?;
        }
        if !self.reason.is_empty() {
            writeln!(f, "reason {}", self.reason)?;
        }
        writeln!(f, "until_ns {}", self.until_ns)?;
        writeln!(f, "top {}", self.top)?;
        for op in &self.schedule.ops {
            match op {
                StimOp::Step { cycles } => writeln!(f, "schedule step {cycles}")?,
                StimOp::Poke {
                    signal,
                    width,
                    value,
                } => writeln!(f, "schedule poke {signal} {width} {value}")?,
                StimOp::Peek { signal } => writeln!(f, "schedule peek {signal}")?,
                StimOp::Checkpoint => writeln!(f, "schedule checkpoint")?,
            }
        }
        writeln!(f, "design:")?;
        f.write_str(&self.source)
    }
}

/// Parse `0x…` hex or decimal.
fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_op(rest: &str) -> Result<StimOp, String> {
    let mut parts = rest.split_whitespace();
    let bad = || format!("bad schedule op: {rest}");
    match parts.next() {
        Some("step") => Ok(StimOp::Step {
            cycles: parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?,
        }),
        Some("poke") => {
            let signal = parts.next().ok_or_else(bad)?.to_string();
            let width: usize = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            let value = parts.next().and_then(parse_u64).ok_or_else(bad)?;
            Ok(StimOp::Poke {
                signal,
                width,
                value: mask(value, width),
            })
        }
        Some("peek") => Ok(StimOp::Peek {
            signal: parts.next().ok_or_else(bad)?.to_string(),
        }),
        Some("checkpoint") => Ok(StimOp::Checkpoint),
        _ => Err(bad()),
    }
}

/// Copy an artifact into a regression corpus directory, creating it if
/// needed. Returns the path written. This is the promotion step: the
/// corpus test (`crates/llhd-designs/tests/corpus.rs`) replays every
/// `.replay` file there on every run.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn promote(artifact: &Artifact, corpus_dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(corpus_dir)?;
    let path = corpus_dir.join(artifact.suggested_file_name());
    std::fs::write(&path, artifact.to_string())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::DesignPlan;

    fn sample() -> Artifact {
        let (design, _) = DesignPlan::generate(7).build().unwrap();
        let schedule = Schedule::generate(8, &design);
        Artifact::new(
            7,
            3,
            Some(EngineSpec::Blaze),
            "trace mismatch\nat event 5",
            &design,
            &schedule,
        )
    }

    #[test]
    fn text_round_trips() {
        let artifact = sample();
        let text = artifact.to_string();
        let parsed = Artifact::parse(&text).unwrap();
        assert_eq!(parsed, artifact);
        // Multiline reasons were flattened at construction.
        assert_eq!(artifact.reason, "trace mismatch; at event 5");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Artifact::parse("").is_err());
        assert!(Artifact::parse("format 99\ndesign:\n").is_err());
        assert!(Artifact::parse("seed zzz\ndesign:\n").is_err());
        let no_design = "format 1\nseed 0x1\nuntil_ns 10\ntop t\n";
        assert!(Artifact::parse(no_design).unwrap_err().contains("design:"));
    }

    #[test]
    fn replay_runs_the_matrix() {
        let artifact = sample();
        let record = artifact
            .replay(&crate::diff::default_matrix())
            .expect("seed 7 replays clean");
        assert!(!record.events.is_empty());
    }

    #[test]
    fn promote_writes_the_canonical_file() {
        let artifact = sample();
        let dir = std::env::temp_dir().join(format!("llhd-fuzz-promote-{}", std::process::id()));
        let path = promote(&artifact, &dir).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "s0000000000000007-c3.replay"
        );
        let back = Artifact::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, artifact);
        std::fs::remove_dir_all(&dir).ok();
    }
}
