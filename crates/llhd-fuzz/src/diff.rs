//! The differential driver: run one case on both engines in lockstep and
//! demand byte-identical observations.
//!
//! The reference is the interpreter. Blaze must match it on four channels
//! at once:
//!
//! * the interned trace event stream
//!   ([`Trace::events`](llhd_sim::Trace::events)),
//! * the rendered VCD (catches serialization-order drift the event
//!   comparison can't),
//! * the result statistics (signal changes, end time, halted processes,
//!   assertion counts — activations are excluded: the two execution
//!   strategies legitimately count entity evaluations differently),
//! * the mid-run peek log produced by the stimulus schedule.
//!
//! Checkpoint cuts are executed *per engine*: the engine serializes, a
//! fresh engine of the same kind is built, restored into, and the run
//! continues there — so restore correctness is fuzzed on both engines
//! whenever the schedule draws a `Checkpoint` op.

use crate::gen::FuzzDesign;
use crate::stim::{mask, Schedule, StimOp};
use llhd::ir::Module;
use llhd::value::ConstValue;
use llhd_blaze::{compile_design, BlazeSimulator};
use llhd_sim::api::Engine;
use llhd_sim::{elaborate, ElaboratedDesign, SimConfig, Simulator};
use std::sync::Arc;

/// One engine in the comparison matrix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineSpec {
    /// The reference interpreter.
    Interp,
    /// The blaze compiled engine.
    Blaze,
}

impl EngineSpec {
    /// A stable, parseable label: `interp` or `blaze`.
    pub fn label(&self) -> String {
        match self {
            EngineSpec::Interp => "interp",
            EngineSpec::Blaze => "blaze",
        }
        .to_string()
    }

    /// Parse a [`label`](EngineSpec::label) back into a spec. The labels
    /// of the retired blaze knob variants (`blaze:fs`, `blaze:f-`,
    /// `blaze:-s`, `blaze:--`), which committed artifacts and old
    /// `--matrix` arguments still name, all parse as [`EngineSpec::Blaze`].
    pub fn parse(label: &str) -> Option<EngineSpec> {
        match label {
            "interp" => Some(EngineSpec::Interp),
            "blaze" | "blaze:fs" | "blaze:f-" | "blaze:-s" | "blaze:--" => Some(EngineSpec::Blaze),
            _ => None,
        }
    }
}

/// The reference engine every other spec is compared against.
pub const REFERENCE: EngineSpec = EngineSpec::Interp;

/// The default comparison matrix (beyond [`REFERENCE`]): blaze — two runs
/// per case in total.
pub fn default_matrix() -> Vec<EngineSpec> {
    vec![EngineSpec::Blaze]
}

/// Everything observed while running one variant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunRecord {
    pub events: Vec<llhd_sim::TraceEvent>,
    pub vcd: String,
    pub signal_changes: usize,
    pub end_time_fs: u128,
    pub halted_processes: usize,
    pub assertions_checked: usize,
    pub assertion_failures: usize,
    /// Values observed by the schedule's `Peek` ops, in order.
    pub peeks: Vec<ConstValue>,
}

/// A confirmed mismatch between the reference and one variant.
#[derive(Clone, Debug)]
pub struct Divergence {
    pub spec: EngineSpec,
    /// Which observation channel disagreed first.
    pub channel: String,
    /// A short human-readable summary of the first difference.
    pub detail: String,
}

/// Why a case did not come back clean.
#[derive(Clone, Debug)]
pub enum CaseFailure {
    /// The generated design itself is broken (parse/verify/elaborate/
    /// compile/run error) — a bug in the *fuzzer*, reported distinctly
    /// from engine divergence.
    Generator(String),
    /// Two engines disagreed: the actual fuzz finding.
    Divergence(Divergence),
}

impl std::fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaseFailure::Generator(msg) => write!(f, "generator bug: {msg}"),
            CaseFailure::Divergence(d) => write!(
                f,
                "divergence on {}: {} mismatch: {}",
                d.spec.label(),
                d.channel,
                d.detail
            ),
        }
    }
}

/// Run `schedule` against one engine of `(module, design)`.
///
/// # Errors
///
/// Returns a message when compilation, stepping, or checkpoint/restore
/// fails — a generator or engine bug, not a divergence.
pub fn run_spec(
    spec: EngineSpec,
    module: &Module,
    design: &FuzzDesign,
    elaborated: &Arc<ElaboratedDesign>,
    schedule: &Schedule,
) -> Result<RunRecord, String> {
    let config = || SimConfig::until_nanos(design.until_ns);
    // The factory is how checkpoint cuts rebuild a fresh engine of the
    // same kind mid-run.
    let compiled = match spec {
        EngineSpec::Blaze => Some(Arc::new(
            compile_design(module, elaborated.clone())
                .map_err(|e| format!("compile ({}): {e:?}", spec.label()))?,
        )),
        EngineSpec::Interp => None,
    };
    let make_engine = || -> Box<dyn Engine> {
        match &compiled {
            Some(c) => Box::new(BlazeSimulator::new(c.clone(), config()).into_driver()),
            None => Box::new(Simulator::new(module, elaborated.clone(), config())),
        }
    };
    let mut engine = make_engine();
    engine
        .initialize()
        .map_err(|e| format!("initialize ({}): {e}", spec.label()))?;
    let mut peeks = Vec::new();
    let mut exhausted = false;
    for op in &schedule.ops {
        match op {
            StimOp::Step { cycles } => {
                for _ in 0..*cycles {
                    if exhausted {
                        break;
                    }
                    exhausted = !engine
                        .step()
                        .map_err(|e| format!("step ({}): {e}", spec.label()))?;
                }
            }
            StimOp::Poke {
                signal,
                width,
                value,
            } => {
                let id = elaborated
                    .signal_by_name(signal)
                    .ok_or_else(|| format!("poke target {signal} does not resolve"))?;
                engine.poke(id, ConstValue::int(*width, mask(*value, *width)));
            }
            StimOp::Peek { signal } => {
                let id = elaborated
                    .signal_by_name(signal)
                    .ok_or_else(|| format!("peek target {signal} does not resolve"))?;
                peeks.push(engine.peek(id));
            }
            StimOp::Checkpoint => {
                if exhausted {
                    continue;
                }
                let state = engine
                    .checkpoint()
                    .map_err(|e| format!("checkpoint ({}): {e}", spec.label()))?;
                // The checkpoint carries the undrained trace and all
                // counters, so the restored engine's `finish` reports
                // the whole run as if never cut.
                let mut fresh = make_engine();
                fresh
                    .restore(&state)
                    .map_err(|e| format!("restore ({}): {e}", spec.label()))?;
                engine = fresh;
            }
        }
    }
    while !exhausted {
        exhausted = !engine
            .step()
            .map_err(|e| format!("tail step ({}): {e}", spec.label()))?;
    }
    let result = engine.finish();
    Ok(RunRecord {
        vcd: result.trace.to_vcd("1fs"),
        events: result.trace.events().to_vec(),
        signal_changes: result.signal_changes,
        end_time_fs: result.end_time.as_femtos(),
        halted_processes: result.halted_processes,
        assertions_checked: result.assertions_checked,
        assertion_failures: result.assertion_failures,
        peeks,
    })
}

/// Compare a variant's record against the reference; `None` means they
/// agree on every channel.
pub fn compare(spec: EngineSpec, reference: &RunRecord, candidate: &RunRecord) -> Option<Divergence> {
    let diverge = |channel: &str, detail: String| {
        Some(Divergence {
            spec,
            channel: channel.to_string(),
            detail,
        })
    };
    if candidate.events != reference.events {
        let at = reference
            .events
            .iter()
            .zip(&candidate.events)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| reference.events.len().min(candidate.events.len()));
        return diverge(
            "trace",
            format!(
                "first mismatch at event {at} (ref {} events, got {}): ref {:?} vs {:?}",
                reference.events.len(),
                candidate.events.len(),
                reference.events.get(at),
                candidate.events.get(at)
            ),
        );
    }
    if candidate.vcd != reference.vcd {
        return diverge("vcd", "VCD serialization differs".to_string());
    }
    if candidate.peeks != reference.peeks {
        let at = reference
            .peeks
            .iter()
            .zip(&candidate.peeks)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| reference.peeks.len().min(candidate.peeks.len()));
        return diverge(
            "peeks",
            format!(
                "peek {at}: ref {:?} vs {:?}",
                reference.peeks.get(at),
                candidate.peeks.get(at)
            ),
        );
    }
    let stats = |r: &RunRecord| {
        (
            r.signal_changes,
            r.end_time_fs,
            r.halted_processes,
            r.assertions_checked,
            r.assertion_failures,
        )
    };
    if stats(candidate) != stats(reference) {
        return diverge(
            "stats",
            format!("ref {:?} vs {:?}", stats(reference), stats(candidate)),
        );
    }
    None
}

/// Run one full case: the reference plus every variant in `matrix`,
/// comparing each against the reference.
///
/// # Errors
///
/// [`CaseFailure::Generator`] when the design itself fails to build or
/// run; [`CaseFailure::Divergence`] on the first variant that disagrees.
pub fn run_case(
    module: &Module,
    design: &FuzzDesign,
    schedule: &Schedule,
    matrix: &[EngineSpec],
) -> Result<RunRecord, CaseFailure> {
    let elaborated = Arc::new(
        elaborate(module, &design.top)
            .map_err(|e| CaseFailure::Generator(format!("elaborate: {e:?}")))?,
    );
    let reference = run_spec(REFERENCE, module, design, &elaborated, schedule)
        .map_err(CaseFailure::Generator)?;
    for &spec in matrix {
        let record = run_spec(spec, module, design, &elaborated, schedule)
            .map_err(CaseFailure::Generator)?;
        if let Some(divergence) = compare(spec, &reference, &record) {
            return Err(CaseFailure::Divergence(divergence));
        }
    }
    Ok(reference)
}

/// [`run_case`] from source text (the replay-artifact entry point).
///
/// # Errors
///
/// Parse failures are reported as [`CaseFailure::Generator`].
pub fn run_matrix(
    source: &str,
    design: &FuzzDesign,
    schedule: &Schedule,
    matrix: &[EngineSpec],
) -> Result<RunRecord, CaseFailure> {
    let module = llhd::assembly::parse_module(source)
        .map_err(|e| CaseFailure::Generator(format!("parse: {e}")))?;
    run_case(&module, design, schedule, matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::DesignPlan;
    use crate::Schedule;

    #[test]
    fn labels_round_trip() {
        for spec in default_matrix().into_iter().chain([REFERENCE]) {
            assert_eq!(EngineSpec::parse(&spec.label()), Some(spec));
        }
        for old in ["blaze:fs", "blaze:f-", "blaze:-s", "blaze:--"] {
            assert_eq!(EngineSpec::parse(old), Some(EngineSpec::Blaze), "{old}");
        }
        assert_eq!(EngineSpec::parse("nonsense"), None);
        assert_eq!(EngineSpec::parse("blaze:fs:t1"), None);
        assert_eq!(EngineSpec::parse("blaze:fsi"), None);
    }

    /// A handful of full cases through the complete default matrix: the
    /// crate's own end-to-end smoke test.
    #[test]
    fn small_seed_sweep_is_clean() {
        let matrix = default_matrix();
        for seed in 0..6u64 {
            let plan = DesignPlan::generate(seed);
            let (design, module) = plan.build().unwrap();
            let schedule = Schedule::generate(seed ^ 0xdead_beef, &design);
            run_case(&module, &design, &schedule, &matrix)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
