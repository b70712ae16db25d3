//! `lower`: the compiler-flow user (Fig. 5).
//!
//! One pass lowers a fresh clone of the accumulator and of each of the ten
//! paper modules from Behavioural to Structural LLHD and verifies the
//! result; only `llhd-opt` and the verifier work. One operation is one
//! module; `throughput` is modules per second, the latencies are those of
//! a whole pass (`lower_ms` of the issue is `latency_p50_ms` here). Cloning
//! the input is the harness's work and is not timed.

use crate::golden::LowerAnswer;
use crate::harness::{keep_freed_memory, repeat_for, timed, timed_setups, Clock, Ctx, Report};
use crate::inputs::{lower_sources, module_insts, Source, SHORT_CYCLES};
use crate::spans::Tracer;
use crate::stats::{median, Rng};
use llhd::assembly::write_module;
use llhd::ir::{Module, UnitKind};
use llhd::verifier::verify_module;
use llhd_opt::passes;
use llhd_opt::pipeline::{lower_to_structural, optimize_module, LoweringOptions, LoweringReport};
use llhd_sim::api::{EngineKind, SimSession};
use llhd_sim::SimConfig;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

fn answer(report: &LoweringReport) -> LowerAnswer {
    LowerAnswer {
        lowered: report.lowered_processes as u64,
        deseq: report.desequentialized_processes as u64,
        rejected: report.rejected.len() as u64,
        inlined: report.inlined_calls as u64,
    }
}

/// What two lowerings of one module must share. Not the text itself:
/// `lower_to_structural` orders the operands of some commutative
/// instructions by hash order (seen on CDC (strobe)), so the text differs
/// from call to call while its length and instruction count do not.
fn shape(module: &Module) -> (usize, usize) {
    (write_module(module).len(), module_insts(module))
}

/// `lower_to_structural` with the default options, replayed pass by pass
/// from the passes' public entry points, one span each. The caller checks
/// that the replay and the library's pipeline produce the same module, so
/// a pipeline that changes shape fails the run instead of silently
/// mis-attributing time.
fn lower_by_pass(
    module: &mut Module,
    t: &mut Tracer,
    pass_ns: &mut BTreeMap<&'static str, f64>,
) -> LoweringReport {
    let mut run = |t: &mut Tracer, name: &'static str, f: &mut dyn FnMut() -> bool| -> bool {
        let (changed, ns) = timed(t, name, f);
        *pass_ns.entry(name).or_default() += ns;
        changed
    };
    let options = LoweringOptions::default();
    let mut report = LoweringReport::default();
    run(t, "opt.pass.inline", &mut || {
        report.inlined_calls = passes::inline::run(module);
        true
    });
    for id in module.units() {
        if module.unit(id).kind() != UnitKind::Process {
            continue;
        }
        let mut work = module.unit(id).clone();
        for _ in 0..options.max_iterations {
            let mut changed = false;
            // `optimize_unit`: the cleanup passes to a fixed point.
            for _ in 0..8 {
                let mut local = false;
                local |= run(t, "opt.pass.const_fold", &mut || {
                    passes::const_fold::run(&mut work)
                });
                local |= run(t, "opt.pass.simplify", &mut || {
                    passes::simplify::run(&mut work)
                });
                local |= run(t, "opt.pass.cse", &mut || passes::cse::run(&mut work));
                local |= run(t, "opt.pass.mem2reg", &mut || {
                    passes::mem2reg::run(&mut work)
                });
                local |= run(t, "opt.pass.dce", &mut || passes::dce::run(&mut work));
                changed |= local;
                if !local {
                    break;
                }
            }
            changed |= run(t, "opt.pass.ecm", &mut || passes::ecm::run(&mut work));
            changed |= run(t, "opt.pass.tcm", &mut || passes::tcm::run(&mut work));
            changed |= run(t, "opt.pass.tcfe", &mut || passes::tcfe::run(&mut work));
            if !changed {
                break;
            }
        }
        run(t, "opt.pass.dce", &mut || passes::dce::run(&mut work));
        let mut entity = None;
        run(t, "opt.pass.process_lowering", &mut || {
            entity = passes::process_lowering::lower_process(&work);
            entity.is_some()
        });
        if let Some(entity) = entity {
            *module.unit_mut(id) = entity;
            report.lowered_processes += 1;
            continue;
        }
        run(t, "opt.pass.deseq", &mut || {
            entity = passes::deseq::desequentialize(&work);
            entity.is_some()
        });
        match entity {
            Some(entity) => {
                *module.unit_mut(id) = entity;
                report.desequentialized_processes += 1;
            }
            None => report.rejected.push(module.unit(id).name().to_string()),
        }
    }
    report
}

pub fn run(ctx: &mut Ctx) -> Report {
    keep_freed_memory();
    llhd_blaze::register();
    let mut report = Report::default();

    let seed = ctx.seed;
    let mut clock = Clock::new(!ctx.trace);
    let built: Vec<(Source, Module)> = timed_setups(
        ctx,
        &mut report,
        Some(&mut clock),
        || {
            let mut sources = lower_sources();
            Rng::new(seed).shuffle(&mut sources);
            sources
                .into_iter()
                .map(|s| {
                    let m = s.build();
                    (s, m)
                })
                .collect()
        },
        drop,
    );

    // Once per run: the counts against the committed ones, and the lowered
    // module's probe-signal trace against the behavioural one.
    let mut lowered_shapes = Vec::new();
    for (s, module) in &built {
        let mut lowered = module.clone();
        let got = answer(&lower_to_structural(
            &mut lowered,
            &LoweringOptions::default(),
        ));
        let committed = ctx.golden.lower(&s.key, got);
        report.op(match committed {
            Some(want) if want == got => None,
            Some(want) => Some(format!(
                "{}: lowering report {:?}, expected {:?}",
                s.key, got, want
            )),
            None => Some(format!("{}: no committed lowering report", s.key)),
        });
        let config =
            SimConfig::until_nanos(s.until_ns(SHORT_CYCLES)).with_trace_filter(&[s.probe.as_str()]);
        let simulate = |m: &Module| {
            SimSession::builder(m, &s.top)
                .engine(EngineKind::Interpret)
                .config(config.clone())
                .build()
                .and_then(SimSession::run)
                .expect("benchmark module simulates")
        };
        let (before, after) = (simulate(module), simulate(&lowered));
        report.op(
            (!before.trace.equivalent(&after.trace) || before.trace.is_empty())
                .then(|| format!("{}: lowering changed the trace of `{}`", s.key, s.probe)),
        );
        lowered_shapes.push(shape(&lowered));
    }

    let share = if ctx.trace { 0.25 } else { 1.0 };
    let mut pass_ms = Vec::new();
    repeat_for(ctx.budget(share), 3, || {
        let mut pass = 0.0;
        for (s, module) in &built {
            let mut fresh = module.clone();
            let start = Instant::now();
            let lowering = lower_to_structural(&mut fresh, &LoweringOptions::default());
            let verified = verify_module(&fresh);
            pass += clock.nominal(start.elapsed().as_secs_f64());
            report.op(verified
                .err()
                .map(|e| format!("{}: lowered module fails to verify: {:?}", s.key, e)));
            black_box(lowering);
        }
        pass_ms.push(pass * 1e3);
    });
    let untraced_ms = median(&pass_ms);
    if !ctx.trace {
        let modules = (pass_ms.len() * built.len()) as f64;
        report.set_sampled(
            "throughput",
            modules / (pass_ms.iter().sum::<f64>() / 1e3),
            pass_ms.len(),
        );
        report.set_sampled("latency_p50_ms", untraced_ms, pass_ms.len());
        report.notes.push(clock.note());
        report.notes.push(format!(
            "{} passes over {} modules",
            pass_ms.len(),
            built.len()
        ));
        return report;
    }

    // Traced passes: the pipeline replayed pass by pass.
    let mut tracer = ctx.tracer(true, 1);
    let mut traced_ms = Vec::new();
    let mut pass_ns: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut verify_us, mut wall_ns) = (Vec::new(), 0.0);
    let (mut lowered_n, mut deseq_n, mut insts_after) = (0, 0, 0);
    repeat_for(ctx.budget(0.3), 2, || {
        let (mut pass, mut verify, mut after) = (0.0, 0.0, 0);
        (lowered_n, deseq_n) = (0, 0);
        for ((s, module), want) in built.iter().zip(&lowered_shapes) {
            tracer.next_op();
            let mut fresh = module.clone();
            let op = tracer.enter("opt.lower");
            let start = Instant::now();
            let lowering = lower_by_pass(&mut fresh, &mut tracer, &mut pass_ns);
            tracer.exit(op);
            let (verified, ns) = timed(&mut tracer, "verifier.verify", || verify_module(&fresh));
            pass += start.elapsed().as_secs_f64();
            verify += ns / 1e3;
            lowered_n += lowering.lowered_processes;
            deseq_n += lowering.desequentialized_processes;
            after += module_insts(&fresh);
            report.op(verified
                .err()
                .map(|e| format!("{}: lowered module fails to verify: {:?}", s.key, e)));
            report.op((shape(&fresh) != *want).then(|| {
                format!(
                    "{}: the pass-by-pass replay and lower_to_structural disagree",
                    s.key
                )
            }));
        }
        insts_after = after;
        verify_us.push(verify);
        wall_ns += pass * 1e9;
        traced_ms.push(pass * 1e3);
    });
    let passes_run = traced_ms.len() as f64;
    let mut pass_total_ms = 0.0;
    for (name, ns) in &pass_ns {
        let ms = ns / 1e6 / passes_run;
        pass_total_ms += ms;
        report.set_sampled(&format!("{}_ms", name), ms, traced_ms.len());
    }
    report.set_sampled("verifier.verify_us", median(&verify_us), verify_us.len());
    report.set(
        "opt.lower_self_ms",
        (median(&traced_ms) - pass_total_ms - median(&verify_us) / 1e3).max(0.0),
    );
    report.set(
        "opt.insts_before",
        built.iter().map(|(_, m)| module_insts(m)).sum::<usize>() as f64,
    );
    report.set("opt.insts_after", insts_after as f64);
    report.set("opt.processes_lowered", lowered_n as f64);
    report.set("opt.processes_deseq", deseq_n as f64);
    report.set(
        "harness.trace_overhead_pct",
        100.0 * (median(&traced_ms) / untraced_ms - 1.0),
    );
    report.set("harness.clock_step_ns", clock.median_step());
    report.absorb(tracer);
    report.attribute(wall_ns);

    // `optimize_module` alone, and what it buys a simulation.
    let mut optimize_ms = Vec::new();
    repeat_for(ctx.budget(0.15), 2, || {
        let mut pass = 0.0;
        for (_, module) in &built {
            let mut fresh = module.clone();
            let start = Instant::now();
            optimize_module(&mut fresh);
            pass += start.elapsed().as_secs_f64();
            black_box(fresh);
        }
        optimize_ms.push(pass * 1e3);
    });
    report.set_sampled("opt.optimize_ms", median(&optimize_ms), optimize_ms.len());

    let (mut plain_s, mut optimized_s) = (0.0, 0.0);
    for (s, module) in &built {
        let mut optimized = module.clone();
        optimize_module(&mut optimized);
        let config = SimConfig::until_nanos(s.until_ns(SHORT_CYCLES)).without_trace();
        let time = |m: &Module| {
            let mut samples = Vec::new();
            repeat_for(ctx.budget(0.2 / (2 * built.len()) as f64), 3, || {
                let session = SimSession::builder(m, &s.top)
                    .engine(EngineKind::Compile)
                    .config(config.clone())
                    .build()
                    .expect("benchmark module builds");
                let start = Instant::now();
                black_box(session.run().expect("benchmark module simulates"));
                samples.push(start.elapsed().as_secs_f64());
            });
            median(&samples)
        };
        plain_s += time(module);
        optimized_s += time(&optimized);
    }
    report.set("opt.sim_gain_pct", 100.0 * (plain_s / optimized_s - 1.0));
    report
}
