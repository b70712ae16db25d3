//! `long-run-interp` and `long-run-blaze`: the paper's headline user.
//!
//! Four free-running designs, trace off, one thread, each engine in its own
//! workload so each keeps its own bound. One operation is one run of one
//! design; a round runs each design once, rounds repeat until the time is
//! up. `throughput` is the geometric mean over the designs of simulated
//! cycles per host-second (cycles / median run time); the latencies are
//! those of a whole round. Simulated statistics are checked, never
//! reported as speed.

use crate::golden::{interpret, SimAnswer};
use crate::harness::{
    keep_freed_memory, median_secs, repeat_for, timed, timed_setups, Clock, Ctx, Report,
};
use crate::inputs::{long_run_sources, Source};
use crate::stats::{geomean, median, Rng};
use llhd::ir::Module;
use llhd::value::{ConstValue, TimeValue};
use llhd_blaze::{
    compile_design, compile_design_with, BlazeOptions, BlazeSimulator, CompiledDesign,
};
use llhd_sim::api::{DesignCache, EngineKind, SimSession};
use llhd_sim::design::SignalId;
use llhd_sim::{elaborate, ElaboratedDesign, EventQueue, SimConfig, SimResult, Simulator};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Cycles of the short, fully traced run whose VCD is checked per design.
const CHECK_CYCLES: u64 = 50;

struct Built {
    source: Source,
    cycles: u64,
    short: &'static str,
    module: Module,
    key: u128,
    config: SimConfig,
}

struct Setup {
    designs: Vec<Built>,
    cache: DesignCache,
}

fn setup(seed: u64, engine: EngineKind) -> Setup {
    let cache = DesignCache::new();
    let designs = long_run_sources(seed)
        .into_iter()
        .map(|(source, cycles, short)| {
            let module = source.build();
            let key = DesignCache::fingerprint(&module);
            let config = SimConfig::until_nanos(source.until_ns(cycles)).without_trace();
            // Elaborate (and, on blaze, compile) once: the measured runs
            // instantiate over the resident design.
            SimSession::builder(&module, &source.top)
                .engine(engine)
                .config(config.clone())
                .cache(&cache)
                .cache_key(key)
                .build()
                .expect("long-run design builds");
            Built {
                source,
                cycles,
                short,
                module,
                key,
                config,
            }
        })
        .collect();
    let set = Setup { designs, cache };
    // One unmeasured round: first-touch page faults and allocator growth
    // belong to set-up, not to an engine.
    for d in &set.designs {
        session_run(&set.cache, d, engine, d.config.clone());
    }
    set
}

fn session_run(cache: &DesignCache, d: &Built, engine: EngineKind, config: SimConfig) -> SimResult {
    SimSession::builder(&d.module, &d.source.top)
        .engine(engine)
        .config(config)
        .cache(cache)
        .cache_key(d.key)
        .build()
        .and_then(SimSession::run)
        .expect("long-run design simulates")
}

fn mismatch(d: &Built, got: &SimAnswer, want: &SimAnswer) -> Option<String> {
    (!got.agrees(want)).then(|| format!("{}: got {:?}, expected {:?}", d.source.key, got, want))
}

pub fn run(ctx: &mut Ctx, engine: EngineKind) -> Report {
    keep_freed_memory();
    llhd_blaze::register();
    let mut report = Report::default();
    let prefix = if engine == EngineKind::Interpret {
        "interp"
    } else {
        "blaze"
    };

    let mut clock = Clock::new(!ctx.trace);
    let set = timed_setups(
        ctx,
        &mut report,
        Some(&mut clock),
        || setup(ctx.seed, engine),
        drop,
    );

    // Expected answers, before any timing: committed where the input is
    // seed-independent (or the seed is the default), the interpreter's
    // otherwise.
    let expected: Vec<(SimAnswer, SimAnswer)> = set
        .designs
        .iter()
        .map(|d| {
            let long = ctx.golden.sim(&d.source.key, d.cycles, false, || {
                interpret(&d.module, &d.source.top, d.source.until_ns(d.cycles), false)
            });
            let short = ctx.golden.sim(&d.source.key, CHECK_CYCLES, true, || {
                interpret(
                    &d.module,
                    &d.source.top,
                    d.source.until_ns(CHECK_CYCLES),
                    true,
                )
            });
            (long, short)
        })
        .collect();

    // The short traced run of the engine under test against the VCD digest.
    for (d, (_, short)) in set.designs.iter().zip(&expected) {
        let config = SimConfig::until_nanos(d.source.until_ns(CHECK_CYCLES));
        let got = SimAnswer::of(&session_run(&set.cache, d, engine, config), true);
        report.op(mismatch(d, &got, short));
    }

    let share = if ctx.trace { 0.25 } else { 1.0 };
    let mut run_s: Vec<Vec<f64>> = vec![Vec::new(); set.designs.len()];
    let mut round_ms = Vec::new();
    repeat_for(ctx.budget(share), 3, || {
        let mut round = 0.0;
        for (i, d) in set.designs.iter().enumerate() {
            let start = Instant::now();
            let result = session_run(&set.cache, d, engine, d.config.clone());
            let seconds = clock.nominal(start.elapsed().as_secs_f64());
            run_s[i].push(seconds);
            round += seconds;
            report.op(mismatch(d, &SimAnswer::of(&result, false), &expected[i].0));
        }
        round_ms.push(round * 1e3);
    });
    let rates: Vec<f64> = set
        .designs
        .iter()
        .zip(&run_s)
        .map(|(d, s)| d.cycles as f64 / median(s))
        .collect();
    let untraced_rate = geomean(&rates);

    if !ctx.trace {
        report.set_sampled("throughput", untraced_rate, run_s[0].len());
        report.set_sampled("latency_p50_ms", median(&round_ms), round_ms.len());
        report.notes.push(clock.note());
        report.notes.push(format!(
            "threads 1, trace off, {} rounds of {:?}",
            round_ms.len(),
            set.designs
                .iter()
                .map(|d| (d.short, d.cycles))
                .collect::<Vec<_>>()
        ));
        return report;
    }

    // The traced rounds: the same runs through the engine's own public
    // constructor, `initialize` and `run`, one span each.
    let mut tracer = ctx.tracer(true, 1);
    let elaborated: Vec<Arc<ElaboratedDesign>> = set
        .designs
        .iter()
        .map(|d| Arc::new(elaborate(&d.module, &d.source.top).expect("elaborates")))
        .collect();
    let compiled: Vec<Option<Arc<CompiledDesign>>> = set
        .designs
        .iter()
        .zip(&elaborated)
        .map(|(d, e)| {
            (engine == EngineKind::Compile)
                .then(|| Arc::new(compile_design(&d.module, Arc::clone(e)).expect("compiles")))
        })
        .collect();
    let n = set.designs.len();
    let (mut new_us, mut init_us, mut run_ns, mut activations) = (
        vec![Vec::new(); n],
        vec![Vec::new(); n],
        vec![Vec::new(); n],
        vec![0u64; n],
    );
    let traced_start = Instant::now();
    repeat_for(ctx.budget(0.25), 3, || {
        for (i, d) in set.designs.iter().enumerate() {
            tracer.next_op();
            let op = tracer.enter("harness.run");
            let result = match &compiled[i] {
                None => {
                    let (mut sim, t_new) = timed(&mut tracer, "interp.new", || {
                        Simulator::new(&d.module, Arc::clone(&elaborated[i]), d.config.clone())
                    });
                    let (_, t_init) = timed(&mut tracer, "interp.initialize", || {
                        sim.initialize().expect("initializes")
                    });
                    let (result, t_run) =
                        timed(&mut tracer, "interp.run", || sim.run().expect("runs"));
                    new_us[i].push(t_new / 1e3);
                    init_us[i].push(t_init / 1e3);
                    run_ns[i].push(t_run);
                    result
                }
                Some(design) => {
                    let (mut sim, t_new) = timed(&mut tracer, "blaze.new", || {
                        BlazeSimulator::new(Arc::clone(design), d.config.clone())
                    });
                    let (_, t_init) = timed(&mut tracer, "blaze.initialize", || {
                        sim.initialize().expect("initializes")
                    });
                    let (result, t_run) =
                        timed(&mut tracer, "blaze.run", || sim.run().expect("runs"));
                    new_us[i].push(t_new / 1e3);
                    init_us[i].push(t_init / 1e3);
                    run_ns[i].push(t_run);
                    result
                }
            };
            tracer.exit(op);
            activations[i] = result.activations as u64;
            report.op(mismatch(d, &SimAnswer::of(&result, false), &expected[i].0));
        }
    });
    let traced_wall = traced_start.elapsed().as_nanos() as f64;

    let per_design =
        |samples: &[Vec<f64>]| -> Vec<f64> { samples.iter().map(|s| median(s)).collect() };
    let run_med = per_design(&run_ns);
    report.set_sampled(
        &format!("{prefix}.new_us"),
        geomean(&per_design(&new_us)),
        new_us[0].len(),
    );
    report.set_sampled(
        &format!("{prefix}.init_us"),
        geomean(&per_design(&init_us)),
        init_us[0].len(),
    );
    let per_activation: Vec<f64> = run_med
        .iter()
        .zip(&activations)
        .map(|(ns, &a)| ns / a.max(1) as f64)
        .collect();
    report.set(
        &format!("{prefix}.ns_per_activation"),
        geomean(&per_activation),
    );
    report.set(
        &format!("{prefix}.activations"),
        activations.iter().sum::<u64>() as f64,
    );
    let traced_rates: Vec<f64> = set
        .designs
        .iter()
        .zip(&run_med)
        .map(|(d, ns)| d.cycles as f64 / (ns / 1e9))
        .collect();
    for (d, rate) in set.designs.iter().zip(&traced_rates) {
        report.set_sampled(
            &format!("{prefix}.cycles_per_s.{}", d.short),
            *rate,
            run_ns[0].len(),
        );
    }
    report.set(
        "harness.trace_overhead_pct",
        100.0 * (untraced_rate / geomean(&traced_rates) - 1.0),
    );
    report.set("harness.clock_step_ns", clock.median_step());
    report.absorb(tracer);
    report.attribute(traced_wall);

    report.set("sched.queue_ns_per_event", queue_ns_per_event(ctx.seed));
    if engine == EngineKind::Compile {
        blaze_probes(ctx, &set, &elaborated, &mut report);
    }
    report
}

/// A seeded schedule/pop mix of a million events through `EventQueue`'s
/// public API: a sliding window of pending drives and wakes, as a running
/// simulation keeps.
fn queue_ns_per_event(seed: u64) -> f64 {
    const EVENTS: usize = 1_000_000;
    const WINDOW: usize = 64;
    let mut rng = Rng::new(seed);
    let mut queue = EventQueue::new();
    let mut now_fs: u128 = 0;
    let value = ConstValue::int(8, 1);
    let (mut drives, mut wakes) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut scheduled = 0;
    while scheduled < EVENTS || !queue.is_empty() {
        while scheduled < EVENTS && queue.len() < WINDOW {
            let at = TimeValue::from_femtos(now_fs + 1_000 * (1 + rng.below(16)) as u128);
            if scheduled % 4 == 0 {
                queue.schedule_wake(at, rng.below(64) as u32, scheduled as u64);
            } else {
                queue.schedule_drive(at, SignalId(rng.below(256)), value.clone());
            }
            scheduled += 1;
        }
        drives.clear();
        wakes.clear();
        if let Some(at) = queue.pop_next(&mut drives, &mut wakes) {
            now_fs = at.as_femtos();
        }
        black_box((&drives, &wakes));
    }
    start.elapsed().as_nanos() as f64 / EVENTS as f64
}

/// The blaze ablations the ROADMAP asks to be decided by measurement:
/// threads 2 against 1 on the two generated designs (`sched.t2_speedup`)
/// and the generic executor against the default (`blaze.generic_slowdown`).
fn blaze_probes(ctx: &Ctx, set: &Setup, elaborated: &[Arc<ElaboratedDesign>], report: &mut Report) {
    let time_runs = |design: &Arc<CompiledDesign>, config: &SimConfig, budget| -> f64 {
        median_secs(budget, || {
            let mut sim = BlazeSimulator::new(Arc::clone(design), config.clone());
            black_box(sim.run().expect("runs"));
        })
    };
    let slice = ctx.budget(0.4 / 12.0);
    let (mut t2, mut generic) = (Vec::new(), Vec::new());
    for (i, d) in set.designs.iter().enumerate() {
        let default =
            Arc::new(compile_design(&d.module, Arc::clone(&elaborated[i])).expect("compiles"));
        let t1 = time_runs(&default, &d.config, slice);
        if d.source.key.starts_with("fir-bank") || d.source.key.starts_with("noc-mesh") {
            t2.push(t1 / time_runs(&default, &d.config.clone().with_threads(2), slice));
        }
        let plain = Arc::new(
            compile_design_with(
                &d.module,
                Arc::clone(&elaborated[i]),
                BlazeOptions {
                    fuse: false,
                    specialize: false,
                    islands: true,
                },
            )
            .expect("compiles"),
        );
        generic.push(time_runs(&plain, &d.config, slice) / t1);
    }
    report.set("sched.t2_speedup", geomean(&t2));
    report.set("blaze.generic_slowdown", geomean(&generic));
    report.notes.push(format!(
        "sched.t2_speedup measured with {} hardware threads",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
}
