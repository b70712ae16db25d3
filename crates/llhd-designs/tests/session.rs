//! Integration tests of the unified `SimSession` surface over the real
//! benchmark designs: pause/resume determinism on both engines, design
//! cache hit/miss semantics (a cached repeat run skips `compile_design`
//! entirely), streaming VCD output, and the parallel batch runner.

use llhd_designs::{accumulator_example, all_designs};
use llhd_sim::api::{BatchJob, DesignCache, EngineKind, SimSession};
use llhd_sim::SimConfig;

/// A session stepped in arbitrary chunks produces a trace byte-identical
/// to an uninterrupted run — on both engines, over real designs.
#[test]
fn chunked_stepping_is_deterministic_on_both_engines() {
    for design in all_designs().into_iter().take(3) {
        let module = design.build().unwrap();
        let config = SimConfig::until_nanos(design.sim_time_ns(10));
        for engine in [EngineKind::Interpret, EngineKind::Compile] {
            let full = SimSession::builder(&module, design.top)
                .engine(engine)
                .config(config.clone())
                .build()
                .unwrap()
                .run()
                .unwrap();
            let mut chunked = SimSession::builder(&module, design.top)
                .engine(engine)
                .config(config.clone())
                .build()
                .unwrap();
            // Pause after uneven chunks of cycles, then run out the rest.
            let mut more = true;
            for chunk in [1usize, 2, 5, 13] {
                for _ in 0..chunk {
                    if !chunked.step().unwrap() {
                        more = false;
                        break;
                    }
                }
            }
            while more && chunked.step().unwrap() {}
            let stepped = chunked.finish().unwrap();
            assert_eq!(
                full.trace.events(),
                stepped.trace.events(),
                "{} ({:?}): chunked stepping diverged from the uninterrupted run",
                design.name,
                engine
            );
            assert_eq!(full.end_time, stepped.end_time, "{}", design.name);
            assert_eq!(
                full.signal_changes, stepped.signal_changes,
                "{}",
                design.name
            );
        }
    }
}

/// Checkpoint at a mid-run step, restore into a *fresh* session, and run
/// out the rest: the resumed trace must be byte-identical to an
/// uninterrupted run — on both engines, over real designs.
#[test]
fn checkpoint_restore_resumes_byte_identical_on_both_engines() {
    for design in all_designs().into_iter().take(3) {
        let module = design.build().unwrap();
        let config = SimConfig::until_nanos(design.sim_time_ns(10));
        for engine in [EngineKind::Interpret, EngineKind::Compile] {
            let full = SimSession::builder(&module, design.top)
                .engine(engine)
                .config(config.clone())
                .build()
                .unwrap()
                .run()
                .unwrap();
            let mut first = SimSession::builder(&module, design.top)
                .engine(engine)
                .config(config.clone())
                .build()
                .unwrap();
            for _ in 0..9 {
                if !first.step().unwrap() {
                    break;
                }
            }
            let state = first.checkpoint().unwrap();
            drop(first);
            let mut resumed = SimSession::builder(&module, design.top)
                .engine(engine)
                .config(config.clone())
                .build()
                .unwrap();
            resumed.restore(&state).unwrap();
            while resumed.step().unwrap() {}
            let result = resumed.finish().unwrap();
            assert_eq!(
                full.trace.events(),
                result.trace.events(),
                "{} ({:?}): resumed trace diverged from the uninterrupted run",
                design.name,
                engine
            );
            assert_eq!(full.end_time, result.end_time, "{}", design.name);
            assert_eq!(
                full.signal_changes, result.signal_changes,
                "{}",
                design.name
            );
        }
    }
}

/// A cached repeat run of a moore-built testbench skips `compile_design`
/// entirely: the second session is served from the cache, observable
/// through the compile-hit counter (`compile_design` only runs on
/// misses).
#[test]
fn cached_repeat_run_skips_compilation() {
    let module = accumulator_example().unwrap();
    let cache = DesignCache::new();
    let config = SimConfig::until_nanos(60);

    let first = SimSession::builder(&module, "acc_tb")
        .engine(EngineKind::Compile)
        .config(config.clone())
        .cache(&cache)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(cache.compile_misses(), 1, "first run must compile");
    assert_eq!(cache.compile_hits(), 0);

    let second = SimSession::builder(&module, "acc_tb")
        .engine(EngineKind::Compile)
        .config(config.clone())
        .cache(&cache)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        cache.compile_hits(),
        1,
        "second run must be served from the cache"
    );
    assert_eq!(
        cache.compile_misses(),
        1,
        "compile_design must not run again"
    );
    assert_eq!(first.trace.events(), second.trace.events());

    // An interpreter session on the same design reuses the cached
    // elaboration without touching the compile table.
    SimSession::builder(&module, "acc_tb")
        .engine(EngineKind::Interpret)
        .config(config.clone())
        .cache(&cache)
        .build()
        .unwrap();
    assert_eq!(cache.elaborate_hits(), 1);
    assert_eq!(cache.compile_misses(), 1);

    // A different top is a different artifact of the same stored design.
    let err = SimSession::builder(&module, "acc")
        .engine(EngineKind::Compile)
        .cache(&cache)
        .build();
    // ("acc" has ports, so elaboration succeeds; both tops coexist.)
    assert!(err.is_ok());
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.stats().designs.len(), 2);
}

/// `run_batch` over every benchmark design produces exactly the traces of
/// the equivalent individual sessions, in job order.
#[test]
fn batch_runner_matches_individual_sessions() {
    let built: Vec<_> = all_designs()
        .into_iter()
        .map(|design| {
            let module = design.build().unwrap();
            let config = SimConfig::until_nanos(design.sim_time_ns(5))
                .with_trace_filter(&[design.probe_signal]);
            (design, module, config)
        })
        .collect();
    let jobs: Vec<BatchJob> = built
        .iter()
        .map(|(design, module, config)| BatchJob {
            module,
            top: design.top,
            engine: EngineKind::Compile,
            config: config.clone(),
            cache_key: None,
        })
        .collect();
    let cache = DesignCache::new();
    let results = SimSession::run_batch(&jobs, Some(&cache));
    assert_eq!(results.len(), jobs.len());
    for ((design, module, config), result) in built.iter().zip(&results) {
        let batch_result = result.as_ref().unwrap();
        let solo = SimSession::builder(module, design.top)
            .engine(EngineKind::Compile)
            .config(config.clone())
            .cache(&cache)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            solo.trace.events(),
            batch_result.trace.events(),
            "{}: batch result diverges from a solo session",
            design.name
        );
    }
    // Ten distinct designs: each compiled exactly once by the batch, then
    // served from the cache for the solo re-runs above.
    assert_eq!(cache.compile_misses(), jobs.len());
    assert_eq!(cache.compile_hits(), jobs.len());
}

/// LRU eviction under a severely bounded cache must never disturb
/// in-flight sessions: a capacity-1 cache under a concurrent mixed-design
/// batch evicts designs *while other jobs still run on them* (they hold
/// their own `Arc`s), and every trace must still be byte-identical to an
/// uncached solo run.
#[test]
fn eviction_mid_batch_leaves_traces_unchanged() {
    let built: Vec<_> = all_designs()
        .into_iter()
        .take(6)
        .map(|design| {
            let module = design.build().unwrap();
            let config = SimConfig::until_nanos(design.sim_time_ns(5))
                .with_trace_filter(&[design.probe_signal]);
            (design, module, config)
        })
        .collect();
    // Each design appears twice, interleaved, so cache entries are both
    // evicted and re-filled while the first wave is still simulating.
    let jobs: Vec<BatchJob> = (0..2)
        .flat_map(|_| {
            built.iter().map(|(design, module, config)| BatchJob {
                module,
                top: design.top,
                engine: EngineKind::Compile,
                config: config.clone(),
                cache_key: None,
            })
        })
        .collect();
    let cache = DesignCache::with_capacity(1);
    let results = SimSession::run_batch(&jobs, Some(&cache));
    assert!(
        cache.evictions() > 0,
        "a capacity-1 cache under {} mixed jobs must evict",
        jobs.len()
    );
    assert!(cache.len() <= built.len(), "cache kept every design live");
    for (i, result) in results.iter().enumerate() {
        let (design, module, config) = &built[i % built.len()];
        let batch_result = result.as_ref().unwrap();
        let solo = SimSession::builder(module, design.top)
            .engine(EngineKind::Compile)
            .config(config.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            solo.trace.events(),
            batch_result.trace.events(),
            "{}: trace disturbed by mid-batch eviction",
            design.name
        );
    }
}

/// `EngineKind::Auto` picks the compiled engine, whatever the module's
/// size, and reports the resolved kind. (Nothing registers blaze any
/// more; the name predates that.)
#[test]
fn auto_engine_compiles_whenever_a_backend_is_registered() {
    let module = accumulator_example().unwrap();
    let session = SimSession::builder(&module, "acc_tb").build().unwrap();
    assert_eq!(session.engine_kind(), EngineKind::Compile);
    assert_eq!(session.engine_name(), "blaze");
    // Four instructions: the size rule this replaced sent it to the
    // interpreter.
    let tiny = llhd::assembly::parse_module(
        "proc @pulse () -> (i1$ %q) {
        entry:
            %on = const i1 1
            %t = const time 2ns
            drv i1$ %q, %on after %t
            halt
        }",
    )
    .unwrap();
    let session = SimSession::builder(&tiny, "pulse").build().unwrap();
    assert_eq!(session.engine_kind(), EngineKind::Compile);
}

/// `Auto` is `Compile`: when blaze rejects the module (blaze compiles
/// *every* unit, and phi nodes are outside its subset), `Auto` reports the
/// compile error just as an explicit `Compile` does. The interpreter still runs the module when
/// asked for by name.
#[test]
fn auto_reports_a_compile_error_when_blaze_rejects() {
    // A blinker plus an unrelated function containing a phi, which blaze
    // refuses to compile even though nothing instantiates it.
    let src = r#"
        func @phi_having (i1 %c) i8 {
        entry:
            br %c, %a, %b
        a:
            %x = const i8 1
            br %join
        b:
            %y = const i8 2
            br %join
        join:
            %r = phi i8 [%x, %a], [%y, %b]
            ret i8 %r
        }
        proc @blink () -> (i1$ %led) {
        entry:
            %on = const i1 1
            %off = const i1 0
            %delay = const time 5ns
            drv i1$ %led, %on after %delay
            wait %next for %delay
        next:
            drv i1$ %led, %off after %delay
            wait %entry for %delay
        }
        "#;
    let module = llhd::assembly::parse_module(src).unwrap();
    for kind in [EngineKind::Auto, EngineKind::Compile] {
        assert!(matches!(
            SimSession::builder(&module, "blink").engine(kind).build().err(),
            Some(llhd_sim::api::Error::Compile(_))
        ));
    }
    let session = SimSession::builder(&module, "blink")
        .engine(EngineKind::Interpret)
        .until_nanos(50)
        .build()
        .unwrap();
    let result = session.run().unwrap();
    assert!(result.trace.changes_of("led").count() >= 9);
}

/// Peek/poke work identically through both engines.
#[test]
fn peek_and_poke_are_engine_agnostic() {
    let module = llhd::assembly::parse_module(
        r#"
        entity @follower (i8$ %a) -> (i8$ %q) {
            %ap = prb i8$ %a
            %delay = const time 1ns
            drv i8$ %q, %ap after %delay
        }
        entity @top () -> () {
            %zero = const i8 0
            %a = sig i8 %zero
            %q = sig i8 %zero
            inst @follower (%a) -> (%q)
        }
        "#,
    )
    .unwrap();
    for engine in [EngineKind::Interpret, EngineKind::Compile] {
        let mut session = SimSession::builder(&module, "top")
            .engine(engine)
            .until_nanos(50)
            .build()
            .unwrap();
        session.initialize().unwrap();
        session
            .poke("a", llhd::value::ConstValue::int(8, 99))
            .unwrap();
        while session.step().unwrap() {}
        assert_eq!(
            session.peek("q").unwrap(),
            llhd::value::ConstValue::int(8, 99),
            "{:?}: poke did not propagate",
            engine
        );
    }
}

/// A drive whose delay carries it past the end of representable time
/// never fires: the event time saturates instead of wrapping around to
/// the near future, where the scheduler would have clamped it to the
/// next delta step.
#[test]
fn a_delay_past_the_end_of_time_never_fires() {
    let module = llhd::assembly::parse_module(
        r#"
        proc @p () -> (i8$ %s) {
        entry:
            %early = const time 10fs
            %far = const time 340282366920938463463374607431768211450fs
            %v = const i8 1
            wait %late for %early
        late:
            drv i8$ %s, %v after %far
            halt
        }
        entity @top () -> () {
            %zero = const i8 0
            %s = sig i8 %zero
            inst @p () -> (%s)
        }
        "#,
    )
    .unwrap();
    for engine in [EngineKind::Interpret, EngineKind::Compile] {
        let result = SimSession::builder(&module, "top")
            .engine(engine)
            .until_nanos(1_000)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(result.signal_changes, 0, "{:?}", engine);
        assert_eq!(result.trace.events(), &[], "{:?}", engine);
    }
}
