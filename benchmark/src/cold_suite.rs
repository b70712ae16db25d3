//! `cold-suite`: the one-shot CLI user.
//!
//! One pass takes each of the ten paper designs from source text through
//! frontend, verifier, elaboration, engine construction (`EngineKind::Auto`,
//! no cache), a 200-cycle fully traced run and VCD rendering. One operation
//! is one design; `throughput` is designs per second, the latencies are
//! those of a whole pass (`cold_ms` of the issue is `latency_p50_ms` here).
//! Digesting the VCD for the golden check is the harness's work and is not
//! timed.

use crate::golden::{interpret, SimAnswer};
use crate::harness::{
    keep_freed_memory, median_secs, repeat_for, timed, timed_setups, Clock, Ctx, Report,
};
use crate::inputs::{module_insts, paper_sources, Source, SHORT_CYCLES};
use crate::spans::Tracer;
use crate::stats::{fnv1a, median, Rng};
use llhd::assembly::{parse_module, write_module};
use llhd::ir::Module;
use llhd::verifier::verify_module;
use llhd_blaze::{compile_design, compile_design_with, BlazeOptions, BlazeSimulator};
use llhd_designs::Frontend;
use llhd_sim::api::{EngineKind, SimSession, AUTO_COMPILE_MIN_INSTS};
use llhd_sim::{elaborate, IslandPlan, SimConfig, SimResult, Simulator};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn config(source: &Source) -> SimConfig {
    SimConfig::until_nanos(source.until_ns(SHORT_CYCLES))
}

fn answer(result: &SimResult, vcd: &str) -> SimAnswer {
    SimAnswer {
        changes: result.signal_changes as u64,
        end_fs: result.end_time.as_femtos(),
        vcd: Some(fnv1a(vcd.as_bytes())),
    }
}

/// Source → VCD through the unified session API, as a user would.
fn cold(source: &Source) -> (SimResult, String) {
    let module = source.build();
    verify_module(&module).expect("benchmark design verifies");
    let result = SimSession::builder(&module, &source.top)
        .engine(EngineKind::Auto)
        .config(config(source))
        .build()
        .and_then(SimSession::run)
        .expect("benchmark design simulates");
    let vcd = result.trace.to_vcd("1fs");
    (result, vcd)
}

/// One layer call of the traced pass: a span, and its time under the
/// layer's name.
fn layer_call<T>(
    t: &mut Tracer,
    log: &mut Vec<(&'static str, f64)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let (value, ns) = timed(t, name, f);
    log.push((name, ns));
    value
}

/// The same path, one span per layer call, with `Auto`'s rule applied by
/// hand so the engine's phases can be told apart.
fn cold_traced(
    source: &Source,
    t: &mut Tracer,
    log: &mut Vec<(&'static str, f64)>,
) -> (SimResult, String) {
    let module = match source.frontend {
        Frontend::Moore => layer_call(t, log, "moore.compile", || {
            moore::compile(&source.text).expect("compiles")
        }),
        Frontend::Assembly => layer_call(t, log, "assembly.parse", || {
            parse_module(&source.text).expect("parses")
        }),
    };
    layer_call(t, log, "verifier.verify", || {
        verify_module(&module).expect("verifies")
    });
    let design = layer_call(t, log, "design.elaborate", || {
        Arc::new(elaborate(&module, &source.top).expect("elaborates"))
    });
    let result = if module_insts(&module) >= AUTO_COMPILE_MIN_INSTS {
        let compiled = layer_call(t, log, "blaze.compile_design", || {
            Arc::new(compile_design(&module, Arc::clone(&design)).expect("compiles"))
        });
        let mut sim = layer_call(t, log, "blaze.new", || {
            BlazeSimulator::new(compiled, config(source))
        });
        layer_call(t, log, "blaze.initialize", || {
            sim.initialize().expect("initializes")
        });
        layer_call(t, log, "blaze.run", || sim.run().expect("runs"))
    } else {
        let mut sim = layer_call(t, log, "interp.new", || {
            Simulator::new(&module, Arc::clone(&design), config(source))
        });
        layer_call(t, log, "interp.initialize", || {
            sim.initialize().expect("initializes")
        });
        layer_call(t, log, "interp.run", || sim.run().expect("runs"))
    };
    let vcd = layer_call(t, log, "trace.to_vcd", || result.trace.to_vcd("1fs"));
    (result, vcd)
}

pub fn run(ctx: &mut Ctx) -> Report {
    keep_freed_memory();
    llhd_blaze::register();
    let mut report = Report::default();

    // Nothing is built ahead of a cold run: set-up is input generation and
    // one unmeasured pass that touches the allocator's pages.
    let seed = ctx.seed;
    let mut clock = Clock::new(!ctx.trace);
    let sources = timed_setups(
        ctx,
        &mut report,
        Some(&mut clock),
        || {
            let mut sources = paper_sources();
            Rng::new(seed).shuffle(&mut sources);
            for s in &sources {
                black_box(cold(s));
            }
            sources
        },
        drop,
    );

    let expected: Vec<SimAnswer> = sources
        .iter()
        .map(|s| {
            ctx.golden.sim(&s.key, SHORT_CYCLES, true, || {
                interpret(&s.build(), &s.top, s.until_ns(SHORT_CYCLES), true)
            })
        })
        .collect();
    let check = |report: &mut Report, s: &Source, got: SimAnswer, want: &SimAnswer| {
        report
            .op((!got.agrees(want))
                .then(|| format!("{}: got {:?}, expected {:?}", s.key, got, want)));
    };

    // Every run asserts interpreter == blaze == golden, whichever engine
    // `Auto` picks in the timed passes.
    for (s, want) in sources.iter().zip(&expected) {
        let module = s.build();
        for engine in [EngineKind::Interpret, EngineKind::Compile] {
            let result = SimSession::builder(&module, &s.top)
                .engine(engine)
                .config(config(s))
                .build()
                .and_then(SimSession::run)
                .expect("benchmark design simulates");
            let vcd = result.trace.to_vcd("1fs");
            check(&mut report, s, answer(&result, &vcd), want);
        }
    }

    let share = if ctx.trace { 0.25 } else { 1.0 };
    let mut pass_ms = Vec::new();
    repeat_for(ctx.budget(share), 3, || {
        let mut pass = 0.0;
        for (s, want) in sources.iter().zip(&expected) {
            let start = Instant::now();
            let (result, vcd) = cold(s);
            pass += start.elapsed().as_secs_f64();
            check(&mut report, s, answer(&result, &vcd), want);
        }
        pass_ms.push(clock.nominal(pass) * 1e3);
    });
    let untraced_ms = median(&pass_ms);
    if !ctx.trace {
        let designs = (pass_ms.len() * sources.len()) as f64;
        report.set_sampled(
            "throughput",
            designs / (pass_ms.iter().sum::<f64>() / 1e3),
            pass_ms.len(),
        );
        report.set_sampled("latency_p50_ms", untraced_ms, pass_ms.len());
        report.notes.push(clock.note());
        report.notes.push(format!(
            "{} passes over {} designs, {} cycles each, engine auto",
            pass_ms.len(),
            sources.len(),
            SHORT_CYCLES
        ));
        return report;
    }

    // Traced passes.
    let mut tracer = ctx.tracer(true, 1);
    let mut traced_ms = Vec::new();
    // Per design, per layer: the samples of that layer's call.
    let mut layer: Vec<Vec<(&'static str, Vec<f64>)>> = vec![Vec::new(); sources.len()];
    let mut wall_ns = 0.0;
    repeat_for(ctx.budget(0.25), 3, || {
        let mut pass = 0.0;
        for (i, (s, want)) in sources.iter().zip(&expected).enumerate() {
            tracer.next_op();
            let mut calls = Vec::new();
            let op = tracer.enter("harness.design");
            let start = Instant::now();
            let (result, vcd) = cold_traced(s, &mut tracer, &mut calls);
            pass += start.elapsed().as_secs_f64();
            tracer.exit(op);
            for (name, ns) in calls {
                match layer[i].iter_mut().find(|(n, _)| *n == name) {
                    Some((_, samples)) => samples.push(ns),
                    None => layer[i].push((name, vec![ns])),
                }
            }
            check(&mut report, s, answer(&result, &vcd), want);
        }
        wall_ns += pass * 1e9;
        traced_ms.push(pass * 1e3);
    });
    // A layer's cost per pass: the sum over the designs of the median call.
    let per_pass_us = |name: &str| -> f64 {
        layer
            .iter()
            .filter_map(|calls| calls.iter().find(|(n, _)| *n == name))
            .map(|(_, samples)| median(samples) / 1e3)
            .sum()
    };
    let n = traced_ms.len();
    report.set_sampled("moore.compile_us", per_pass_us("moore.compile"), n);
    report.set_sampled("verifier.verify_us", per_pass_us("verifier.verify"), n);
    report.set_sampled("design.elaborate_us", per_pass_us("design.elaborate"), n);
    report.set_sampled(
        "blaze.compile_design_us",
        per_pass_us("blaze.compile_design"),
        n,
    );
    report.set_sampled("blaze.new_us", per_pass_us("blaze.new"), n);
    report.set_sampled("blaze.init_us", per_pass_us("blaze.initialize"), n);
    report.set_sampled("interp.new_us", per_pass_us("interp.new"), n);
    report.set_sampled("interp.init_us", per_pass_us("interp.initialize"), n);
    report.set(
        "harness.trace_overhead_pct",
        100.0 * (median(&traced_ms) / untraced_ms - 1.0),
    );
    report.set("harness.clock_step_ns", clock.median_step());
    report.absorb(tracer);
    report.attribute(wall_ns);

    layer_probes(ctx, &sources, &mut report);
    report
}

/// What the pass cannot show from outside: serializer rates, the phases
/// inside `compile_design`, the trace layer, and both engines on every
/// design for `Auto`'s break-even.
fn layer_probes(ctx: &Ctx, sources: &[Source], report: &mut Report) {
    let slice = ctx.budget(0.5 / 12.0);
    let modules: Vec<Module> = sources.iter().map(Source::build).collect();
    let moore_insts: usize = sources
        .iter()
        .zip(&modules)
        .filter(|(s, _)| s.frontend == Frontend::Moore)
        .map(|(_, m)| module_insts(m))
        .sum();
    report.set("moore.insts_out", moore_insts as f64);

    let texts: Vec<String> = modules.iter().map(write_module).collect();
    let text_mb = texts.iter().map(String::len).sum::<usize>() as f64 / 1e6;
    let write_s = median_secs(slice, || {
        for m in &modules {
            black_box(write_module(m));
        }
    });
    report.set("assembly.write_mb_per_s", text_mb / write_s);
    let parse_s = median_secs(slice, || {
        for t in &texts {
            black_box(parse_module(t).expect("written assembly parses"));
        }
    });
    report.set("assembly.parse_mb_per_s", text_mb / parse_s);

    let designs: Vec<_> = sources
        .iter()
        .zip(&modules)
        .map(|(s, m)| Arc::new(elaborate(m, &s.top).expect("elaborates")))
        .collect();
    report.set(
        "design.signals",
        designs.iter().map(|d| d.num_signals()).sum::<usize>() as f64,
    );
    report.set(
        "design.instances",
        designs.iter().map(|d| d.num_instances()).sum::<usize>() as f64,
    );
    report.set(
        "islands.count",
        modules
            .iter()
            .zip(&designs)
            .map(|(m, d)| IslandPlan::build(m, d).num_islands())
            .sum::<usize>() as f64,
    );
    let plan_s = median_secs(slice, || {
        for (m, d) in modules.iter().zip(&designs) {
            black_box(IslandPlan::build(m, d));
        }
    });
    report.set("islands.plan_us", plan_s * 1e6);

    // Inside `compile_design`: per-unit compile without and with the
    // superop lowering (the lowering is their difference), then the
    // per-instance specialization over the finished design.
    let plain = BlazeOptions {
        fuse: false,
        specialize: false,
        islands: true,
    };
    let unit_s = median_secs(slice, || {
        for m in &modules {
            for id in m.units() {
                black_box(llhd_blaze::compile::compile_unit_with(m, id, plain).expect("compiles"));
            }
        }
    });
    let unit_lowered_s = median_secs(slice, || {
        for m in &modules {
            for id in m.units() {
                black_box(llhd_blaze::compile::compile_unit(m, id).expect("compiles"));
            }
        }
    });
    report.set("blaze.compile_unit_us", unit_s * 1e6);
    report.set(
        "blaze.lower_unit_us",
        (unit_lowered_s - unit_s).max(0.0) * 1e6,
    );
    let compiled: Vec<_> = modules
        .iter()
        .zip(&designs)
        .map(|(m, d)| Arc::new(compile_design(m, Arc::clone(d)).expect("compiles")))
        .collect();
    let specialize_s = median_secs(slice, || {
        for c in &compiled {
            for instance in &c.instances {
                if let Some(lowered) = &c.units[&instance.unit].lowered {
                    black_box(llhd_blaze::superop::specialize(
                        lowered,
                        &instance.signal_table,
                    ));
                }
            }
        }
    });
    report.set("blaze.specialize_us", specialize_s * 1e6);
    let stats: Vec<_> = compiled.iter().flat_map(|c| c.unit_stats()).collect();
    report.set(
        "blaze.base_ops",
        stats.iter().map(|s| s.base_ops).sum::<usize>() as f64,
    );
    report.set(
        "blaze.superops",
        stats.iter().map(|s| s.superops).sum::<usize>() as f64,
    );
    report.set(
        "blaze.specialized_instances",
        stats.iter().map(|s| s.specialized_instances).sum::<usize>() as f64,
    );

    // Both engines on every design: construction and run, traced and not.
    let per_design = ctx.budget(0.5 / 12.0 * 7.0 / (sources.len() * 5) as f64);
    let (mut breakeven, mut traced_run, mut untraced_run) = (Vec::new(), 0.0, 0.0);
    let (mut events, mut vcd_bytes, mut vcd_s) = (0usize, 0usize, 0.0);
    for (((s, m), d), c) in sources.iter().zip(&modules).zip(&designs).zip(&compiled) {
        let cfg = config(s);
        let compile_s = median_secs(per_design, || {
            black_box(
                compile_design_with(m, Arc::clone(d), BlazeOptions::default()).expect("compiles"),
            );
        });
        let interp_build_s = median_secs(per_design, || {
            let mut sim = Simulator::new(m, Arc::clone(d), cfg.clone());
            sim.initialize().expect("initializes");
            black_box(&sim);
        });
        let blaze_build_s = median_secs(per_design, || {
            let mut sim = BlazeSimulator::new(Arc::clone(c), cfg.clone());
            sim.initialize().expect("initializes");
            black_box(&sim);
        });
        let interp_s = median_secs(per_design, || {
            black_box(
                Simulator::new(m, Arc::clone(d), cfg.clone())
                    .run()
                    .expect("runs"),
            );
        });
        let mut last = None;
        let blaze_s = median_secs(per_design, || {
            last = Some(
                BlazeSimulator::new(Arc::clone(c), cfg.clone())
                    .run()
                    .expect("runs"),
            );
        });
        let quiet_s = median_secs(per_design, || {
            let quiet = cfg.clone().without_trace();
            black_box(
                BlazeSimulator::new(Arc::clone(c), quiet)
                    .run()
                    .expect("runs"),
            );
        });
        traced_run += blaze_s;
        untraced_run += quiet_s;
        let result = last.expect("at least one run");
        events += result.trace.len();
        let mut vcd = String::new();
        vcd_s += median_secs(per_design, || vcd = result.trace.to_vcd("1fs"));
        vcd_bytes += vcd.len();
        // Cycles after which compiling has paid for itself against the
        // interpreter, construction included; never, if blaze is no faster.
        let saving = (interp_s - interp_build_s) - (blaze_s - blaze_build_s);
        let cost = compile_s + blaze_build_s - interp_build_s;
        breakeven.push(if saving > 0.0 {
            (cost / (saving / SHORT_CYCLES as f64)).max(0.0)
        } else {
            f64::MAX
        });
    }
    report.set_sampled(
        "blaze.breakeven_cycles",
        median(&breakeven).min(1e12),
        breakeven.len(),
    );
    report.set(
        "trace.record_overhead_pct",
        100.0 * (traced_run / untraced_run - 1.0),
    );
    report.set("trace.to_vcd_mb_per_s", vcd_bytes as f64 / 1e6 / vcd_s);
    report.set("trace.events", events as f64);
    report.set("trace.vcd_bytes", vcd_bytes as f64);
}
