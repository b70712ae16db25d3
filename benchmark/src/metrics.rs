//! The names the benchmark reports: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` is this file rendered
//! (`llhd-benchmark manifest`); a package test keeps the two equal.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher: bool,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

/// How long one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "long-run-interp",
        why: "Four free-running designs for 500-20k cycles on the interpreter, trace off: the paper's headline user; >99% is scheduler + activation loop, so frontend, compile and serving changes must not move it.",
    },
    Workload {
        name: "long-run-blaze",
        why: "The same runs on the compiled engine over a pre-compiled design: the run loop of the engine the paper's speed-up rests on, with construction cost excluded.",
    },
    Workload {
        name: "cold-suite",
        why: "The ten paper designs from source text to VCD with nothing cached: the one-shot CLI user; construction-heavy, so a run-loop gain bought with slower construction shows as a loss here.",
    },
    Workload {
        name: "lower",
        why: "Behavioural-to-structural lowering of the accumulator and the ten paper modules: the compiler-flow user (Fig. 5); only llhd-opt and the verifier work, so engine and server changes must not move it.",
    },
    Workload {
        name: "serve-warm",
        why: "Two closed-loop connections send keyed sim requests over ten warmed designs, trace off: steady-state serving; wire + JSON + dispatch + cache hit + instantiate + short run, no parse or compile.",
    },
    Workload {
        name: "serve-trace",
        why: "The serve-warm traffic plus trace:vcd (9-31 KB responses): the response path used heavily (trace sink, VCD render, JSON string encode, wire write); a trace gain shows here and not on serve-warm.",
    },
    Workload {
        name: "serve-churn",
        why: "Inline-source requests, half from 8 hot and half from 120 cold generated designs, cache capacity 16: DesignCache fills and evictions, so a hit-path gain that taxes misses shows.",
    },
    Workload {
        name: "route-warm",
        why: "The byte-identical serve-warm traffic sent through a router over two in-process workers: isolates the router hop (route-warm minus serve-warm).",
    },
];

/// What a user of the system sees. Every workload reports every one; what
/// an operation is differs per workload and is stated in the README.
pub const END_TO_END: &[Metric] = &[
    Metric {
        name: "setup_s",
        unit: "s",
        higher: false,
        bound: 0.25,
    },
    Metric {
        name: "throughput",
        unit: "1/s",
        higher: true,
        bound: 0.25,
    },
    Metric {
        name: "latency_p50_ms",
        unit: "ms",
        higher: false,
        bound: 0.25,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
        higher: false,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound: 0.0,
    }
}

/// Single-layer metrics of the traced run. A workload reports 0 for a
/// layer its measured section never calls.
pub const PER_LAYER: &[Metric] = &[
    // moore
    layer("moore.compile_us", "us", false),
    layer("moore.insts_out", "count", false),
    // llhd::assembly / bitcode / verifier
    layer("assembly.parse_mb_per_s", "MB/s", true),
    layer("assembly.write_mb_per_s", "MB/s", true),
    layer("bitcode.encode_mb_per_s", "MB/s", true),
    layer("bitcode.decode_mb_per_s", "MB/s", true),
    layer("verifier.verify_us", "us", false),
    // llhd-opt
    layer("opt.optimize_ms", "ms", false),
    layer("opt.lower_self_ms", "ms", false),
    layer("opt.pass.const_fold_ms", "ms", false),
    layer("opt.pass.dce_ms", "ms", false),
    layer("opt.pass.cse_ms", "ms", false),
    layer("opt.pass.simplify_ms", "ms", false),
    layer("opt.pass.ecm_ms", "ms", false),
    layer("opt.pass.tcm_ms", "ms", false),
    layer("opt.pass.tcfe_ms", "ms", false),
    layer("opt.pass.mem2reg_ms", "ms", false),
    layer("opt.pass.inline_ms", "ms", false),
    layer("opt.pass.process_lowering_ms", "ms", false),
    layer("opt.pass.deseq_ms", "ms", false),
    layer("opt.insts_before", "count", false),
    layer("opt.insts_after", "count", false),
    layer("opt.processes_lowered", "count", true),
    layer("opt.processes_deseq", "count", true),
    layer("opt.sim_gain_pct", "%", true),
    // llhd-sim::design / islands / sched
    layer("design.elaborate_us", "us", false),
    layer("design.signals", "count", false),
    layer("design.instances", "count", false),
    layer("islands.plan_us", "us", false),
    layer("islands.count", "count", true),
    layer("sched.queue_ns_per_event", "ns", false),
    layer("sched.t2_speedup", "x", true),
    // llhd-sim::engine
    layer("interp.new_us", "us", false),
    layer("interp.init_us", "us", false),
    layer("interp.ns_per_activation", "ns", false),
    layer("interp.activations", "count", false),
    layer("interp.cycles_per_s.fir-bank", "1/s", true),
    layer("interp.cycles_per_s.noc-mesh", "1/s", true),
    layer("interp.cycles_per_s.fifo", "1/s", true),
    layer("interp.cycles_per_s.riscv", "1/s", true),
    // llhd-sim::trace
    layer("trace.record_overhead_pct", "%", false),
    layer("trace.to_vcd_mb_per_s", "MB/s", true),
    layer("trace.events", "count", false),
    layer("trace.vcd_bytes", "count", false),
    // llhd-sim::api
    layer("api.build_hit_us", "us", false),
    layer("api.build_miss_us", "us", false),
    layer("api.fingerprint_us", "us", false),
    layer("api.batch_jobs_per_s", "1/s", true),
    layer("api.step_peek_ns", "ns", false),
    layer("api.checkpoint_us", "us", false),
    layer("api.restore_us", "us", false),
    layer("api.checkpoint_bytes", "count", false),
    // llhd-blaze::compile / superop
    layer("blaze.compile_design_us", "us", false),
    layer("blaze.compile_unit_us", "us", false),
    layer("blaze.lower_unit_us", "us", false),
    layer("blaze.specialize_us", "us", false),
    layer("blaze.base_ops", "count", false),
    layer("blaze.superops", "count", false),
    layer("blaze.specialized_instances", "count", true),
    // llhd-blaze::engine
    layer("blaze.new_us", "us", false),
    layer("blaze.init_us", "us", false),
    layer("blaze.ns_per_activation", "ns", false),
    layer("blaze.activations", "count", false),
    layer("blaze.cycles_per_s.fir-bank", "1/s", true),
    layer("blaze.cycles_per_s.noc-mesh", "1/s", true),
    layer("blaze.cycles_per_s.fifo", "1/s", true),
    layer("blaze.cycles_per_s.riscv", "1/s", true),
    layer("blaze.generic_slowdown", "x", false),
    layer("blaze.breakeven_cycles", "cycles", false),
    // llhd-server::json / wire / protocol
    layer("json.parse_mb_per_s", "MB/s", true),
    layer("json.encode_mb_per_s", "MB/s", true),
    layer("wire.read_mb_per_s", "MB/s", true),
    layer("protocol.parse_us", "us", false),
    // llhd-server::server
    layer("server.ping_rtt_us", "us", false),
    layer("server.handle_line_us", "us", false),
    layer("server.handle_line_vcd_us", "us", false),
    layer("server.wire_us", "us", false),
    layer("server.wire_vcd_us", "us", false),
    layer("server.dispatch_us", "us", false),
    layer("server.cache_hit_ratio", "ratio", true),
    layer("server.evictions", "count", false),
    layer("server.shed", "count", false),
    layer("server.panics_caught", "count", false),
    layer("server.latency_p90_ms", "ms", false),
    layer("server.latency_p99_ms", "ms", false),
    // llhd-router
    layer("router.ping_rtt_us", "us", false),
    layer("router.hop_us", "us", false),
    layer("router.hop_vcd_us", "us", false),
    layer("router.retried", "count", false),
    layer("router.shed", "count", false),
    layer("router.worker_share_max", "ratio", false),
    // the harness itself
    layer("harness.clock_step_ns", "ns", false),
    layer("harness.client_us", "us", false),
    layer("harness.trace_overhead_pct", "%", false),
    layer("harness.unattributed_pct", "%", false),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn json_string(s: &str) -> String {
    llhd_server::json::Json::str(s).to_string()
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    // One object per line, so a changed metric is a one-line diff.
    fn list<T>(items: &[T], object: impl Fn(&T) -> String) -> String {
        let lines: Vec<String> = items
            .iter()
            .map(|item| format!("    {}", object(item)))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    }
    let metric = |m: &Metric, bounded: bool| {
        let bound = if bounded {
            format!(", \"bound\": {}", m.bound)
        } else {
            String::new()
        };
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": \"{}\"{}}}",
            json_string(m.name),
            json_string(m.unit),
            if m.higher { "higher" } else { "lower" },
            bound
        )
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        RUN_SECONDS,
        list(WORKLOADS, |w| format!(
            "{{\"name\": {}, \"why\": {}}}",
            json_string(w.name),
            json_string(w.why)
        )),
        list(END_TO_END, |m| metric(m, true)),
        list(PER_LAYER, |m| metric(m, false)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_tables_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(well_formed(name), "{}", name);
            assert!(seen.insert(name), "{} is used twice", name);
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher));
        assert!(manifest().len() < 64 * 1024);
    }

    /// `BENCHMARK.json` sits outside the package; where the checkout has
    /// it, it must be this file's rendering.
    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        if let Ok(committed) = std::fs::read_to_string(path) {
            assert_eq!(
                committed,
                manifest(),
                "run `llhd-benchmark manifest > BENCHMARK.json`"
            );
        }
    }
}
