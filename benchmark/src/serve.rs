//! The four serving workloads: `serve-warm`, `serve-trace`, `serve-churn`
//! and `route-warm`.
//!
//! The server (or a router over two workers) runs in this process on an
//! ephemeral TCP port; `min(2, nproc)` closed-loop connections send
//! pre-encoded request lines. One operation is one request; `throughput`
//! is ok responses per second (`rps` of the issue), the latencies run from
//! the request's write to the last byte of its response line.
//!
//! `serve-warm` and `route-warm` send byte-identical request streams, and
//! `serve-trace` differs from them by the `trace` field alone, so the
//! differences between the three are attributable.

use crate::client::{closed_loop, LineClient, Load, Req};
use crate::golden::{interpret, SimAnswer};
use crate::harness::{median_secs, repeat_for, timed, timed_setups, Clock, Ctx, Report};
use crate::inputs::{
    churn_sources, module_insts, paper_sources, Source, CHURN_CYCLES, CHURN_HOT, SHORT_CYCLES,
};
use crate::spans::Tracer;
use crate::stats::{fnv1a, median, quantile, Rng};
use llhd::assembly::{parse_module, write_module};
use llhd::bitcode::{decode_module, encode_module};
use llhd::ir::Module;
use llhd_blaze::compile_design;
use llhd_router::{Router, RouterConfig, RunningRouter, WorkerSpec};
use llhd_server::json::Json;
use llhd_server::{LineReader, Request, RunningServer, Server, ServerConfig};
use llhd_sim::api::{BatchJob, DesignCache, EngineKind, SimSession};
use llhd_sim::{elaborate, SimConfig};
use std::hint::black_box;
use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Warm,
    Trace,
    Churn,
    Route,
}

/// Unrecorded load at the start of every segment.
const WARM_UP: Duration = Duration::from_millis(250);
/// The measured window is cut into up to this many segments, each on fresh
/// connections. Which threads share a vCPU settles per connection and
/// stays: two-second stretches of one process differed by a tenth either
/// way, whole runs by as much, while the median of five such stretches
/// repeated within 2% from process to process.
const SEGMENTS: usize = 5;
/// A segment shorter than this has too few requests for its own median.
const MIN_SEGMENT: Duration = Duration::from_secs(1);
/// `cache_capacity` of the `serve-churn` server.
const CHURN_CAPACITY: usize = 16;

const PING: &[u8] = b"{\"type\":\"ping\"}\n";
const STATS: &str = "{\"type\":\"stats\"}";
const SHUTDOWN: &[u8] = b"{\"type\":\"shutdown\"}\n";

fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The system under test: one server, or a router over two workers.
struct Fleet {
    workers: Vec<RunningServer>,
    router: Option<RunningRouter>,
}

impl Fleet {
    fn spawn(kind: Kind) -> Fleet {
        let config = ServerConfig {
            cache_capacity: (kind == Kind::Churn).then_some(CHURN_CAPACITY),
            ..ServerConfig::default()
        };
        let count = if kind == Kind::Route { 2 } else { 1 };
        let workers: Vec<RunningServer> = (0..count)
            .map(|_| {
                Server::spawn_tcp(config.clone(), "127.0.0.1:0").expect("bind an ephemeral port")
            })
            .collect();
        let router = (kind == Kind::Route).then(|| {
            let workers = workers
                .iter()
                .enumerate()
                .map(|(i, w)| WorkerSpec {
                    id: format!("w{}", i),
                    addr: w.addr(),
                })
                .collect();
            Router::spawn_tcp(
                RouterConfig {
                    workers,
                    ..RouterConfig::default()
                },
                "127.0.0.1:0",
            )
            .expect("bind the router")
        });
        Fleet { workers, router }
    }

    /// Where clients connect.
    fn addr(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or(self.workers[0].addr(), RunningRouter::addr)
    }

    /// Stop every thread the fleet started and wait for each.
    fn shutdown(self) {
        let stop = |addr: SocketAddr| {
            let mut client = LineClient::connect(addr).expect("connect for shutdown");
            client.call(SHUTDOWN).expect("shutdown acknowledged");
        };
        if let Some(router) = self.router {
            stop(router.addr());
            router.join().expect("router exits cleanly");
        }
        for worker in self.workers {
            stop(worker.addr());
            worker.join().expect("worker exits cleanly");
        }
    }

    /// The workers' `stats` counters, summed.
    fn counters(&self) -> Counters {
        let mut sum = Counters::default();
        for worker in &self.workers {
            let (response, _) = worker.state().handle_line(STATS);
            let number = |path: &[&str]| -> f64 {
                path.iter()
                    .try_fold(&response, |v, key| v.get(key))
                    .and_then(Json::as_int)
                    .map_or(0.0, |n| n as f64)
            };
            sum.hits += number(&["result", "cache", "compile_hits"]);
            sum.misses += number(&["result", "cache", "compile_misses"]);
            sum.evictions += number(&["result", "cache", "evictions"]);
            sum.shed += number(&["result", "load", "shed"]);
            sum.panics += number(&["result", "load", "panics_caught"]);
            sum.requests.push(number(&["result", "requests"]));
        }
        sum
    }
}

#[derive(Default)]
struct Counters {
    hits: f64,
    misses: f64,
    evictions: f64,
    shed: f64,
    panics: f64,
    /// Requests handled, per worker.
    requests: Vec<f64>,
}

/// One design of the traffic: its module and the request that names it.
struct Item {
    source: Source,
    module: Module,
    until_ns: u128,
}

/// The request for `item`, naming its design by `field` (`"source"`: the
/// assembly text, `"design"`: the key of a resident design).
fn sim_request(kind: Kind, field: &'static str, design: &str, item: &Item) -> Vec<u8> {
    let mut fields = vec![
        ("type", Json::str("sim")),
        (field, Json::str(design)),
        ("top", Json::str(item.source.top.clone())),
        ("engine", Json::str("compile")),
        ("until_ns", Json::uint(item.until_ns)),
    ];
    if kind == Kind::Trace {
        fields.push(("trace", Json::str("vcd")));
    }
    let mut line = Json::obj(fields).to_string().into_bytes();
    line.push(b'\n');
    line
}

/// Check one response field by field against the expected answer; returns
/// the design key it carries.
fn validate(line: &[u8], want: &SimAnswer, traced: bool) -> Result<String, String> {
    let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
    let response = Json::parse(text)?;
    if response.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("not ok: {:.200}", text));
    }
    let result = response.get("result").ok_or("no result")?;
    let int = |key: &str| {
        result
            .get(key)
            .and_then(Json::as_int)
            .ok_or(format!("no {}", key))
    };
    let got = SimAnswer {
        changes: int("signal_changes")? as u64,
        end_fs: int("end_time_fs")? as u128,
        vcd: result
            .get("trace_vcd")
            .and_then(Json::as_str)
            .map(|vcd| fnv1a(vcd.as_bytes())),
    };
    if got.vcd.is_some() != traced {
        return Err("trace_vcd present iff requested".to_string());
    }
    if !got.agrees(want) {
        return Err(format!("got {:?}, expected {:?}", got, want));
    }
    result
        .get("design")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or("no design key".to_string())
}

struct Setup {
    fleet: Fleet,
    items: Vec<Item>,
    requests: Vec<Req>,
    /// Set-up requests that failed validation.
    failures: Vec<String>,
    attempted: u64,
}

/// Input generation, design builds, fleet spawn, cache warm-up, and the
/// validation of every distinct response against its expected answer.
fn setup(kind: Kind, seed: u64, expected: &[SimAnswer]) -> Setup {
    let sources = if kind == Kind::Churn {
        churn_sources(seed)
    } else {
        paper_sources()
    };
    let cycles = if kind == Kind::Churn {
        CHURN_CYCLES
    } else {
        SHORT_CYCLES
    };
    let items: Vec<Item> = sources
        .into_iter()
        .map(|source| {
            let module = source.build();
            let until_ns = source.until_ns(cycles);
            Item {
                source,
                module,
                until_ns,
            }
        })
        .collect();
    let fleet = Fleet::spawn(kind);
    let mut client = LineClient::connect(fleet.addr()).expect("connect");
    let traced = kind == Kind::Trace;
    let (mut requests, mut failures, mut attempted) = (Vec::new(), Vec::new(), 0);
    // Cold designs first, so the hot ones are the resident ones when the
    // load starts.
    let order: Vec<usize> = (CHURN_HOT.min(items.len())..items.len())
        .chain(0..CHURN_HOT.min(items.len()))
        .collect();
    let mut slots: Vec<Option<Req>> = vec![None; items.len()];
    for i in order {
        let item = &items[i];
        let by_source = sim_request(kind, "source", &write_module(&item.module), item);
        let mut send = |line: &[u8]| -> Option<(String, u64)> {
            attempted += 1;
            let outcome = client
                .call(line)
                .map_err(|e| e.to_string())
                .and_then(|response| {
                    Ok((validate(response, &expected[i], traced)?, fnv1a(response)))
                });
            outcome
                .map_err(|e| failures.push(format!("{}: {}", item.source.key, e)))
                .ok()
        };
        let Some((key, digest)) = send(&by_source) else {
            continue;
        };
        slots[i] = if kind == Kind::Churn {
            Some(Req {
                line: by_source,
                expect: digest,
                label: item.source.key.clone(),
            })
        } else {
            // The measured traffic names the now-resident design by key.
            let by_key = sim_request(kind, "design", &key, item);
            send(&by_key).map(|(_, digest)| Req {
                line: by_key,
                expect: digest,
                label: item.source.key.clone(),
            })
        };
    }
    // A design that failed set-up keeps its slot (indices stay aligned)
    // with a digest no response has.
    for (i, slot) in slots.into_iter().enumerate() {
        requests.push(slot.unwrap_or(Req {
            line: PING.to_vec(),
            expect: 0,
            label: items[i].source.key.clone(),
        }));
    }
    Setup {
        fleet,
        items,
        requests,
        failures,
        attempted,
    }
}

/// The request order of connection `lane` in segment `segment`: round-robin
/// over a seeded permutation of the ten designs, or for `serve-churn` a
/// seeded draw, half from the hot designs and half from the cold.
fn sequence(kind: Kind, seed: u64, lane: usize, segment: usize, n: usize) -> impl FnMut() -> usize {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed).shuffle(&mut order);
    let mut rng = Rng::new(
        seed.wrapping_mul(31)
            .wrapping_add((segment * 2 + lane) as u64),
    );
    let mut k = lane * n / 2 + segment;
    move || {
        if kind == Kind::Churn {
            if rng.below(2) == 0 {
                rng.below(CHURN_HOT)
            } else {
                CHURN_HOT + rng.below(n - CHURN_HOT)
            }
        } else {
            k += 1;
            order[k % n]
        }
    }
}

/// One segment: closed-loop load from every client connection for
/// `measure` after [`WARM_UP`]; lanes number the tracers.
fn load(
    ctx: &Ctx,
    kind: Kind,
    addr: SocketAddr,
    requests: &[Req],
    measure: Duration,
    segment: usize,
    traced: bool,
) -> Vec<Load> {
    let begin = Instant::now();
    let record_from = begin + WARM_UP;
    let stop = record_from + measure;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients())
            .map(|lane| {
                let next = sequence(kind, ctx.seed, lane, segment, requests.len());
                let tracer = ctx.tracer(traced, lane as u32 + 1);
                let clock = Clock::new(!ctx.trace);
                scope.spawn(move || {
                    closed_loop(addr, requests, next, record_from, stop, tracer, clock)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// What all connections measured together, in one segment or ([`measure`])
/// in all of them.
#[derive(Default)]
struct Folded {
    /// Ok responses per second, summed over the connections; over
    /// segments, the median.
    rps: f64,
    /// Median latency; over segments, the median of theirs.
    p50_ms: f64,
    /// Every recorded request's latency.
    latency_ms: Vec<f64>,
    /// Recorded wall time, summed over the connections.
    wall_ns: f64,
    /// The client's own time per request (`harness.client_us`).
    client_us: f64,
}

/// Fold one segment's connections into the report; their clock probes go
/// to `clock` and scale the segment's throughput and median latency.
fn fold(report: &mut Report, clock: &mut Clock, loads: Vec<Load>) -> Folded {
    let mut folded = Folded::default();
    let mut client_ns = 0.0;
    let mut probes = Clock::new(clock.scales());
    for load in loads {
        let ok = load.latency_us.len() as u64 - load.failed.min(load.latency_us.len() as u64);
        folded.rps += ok as f64 / load.wall.as_secs_f64().max(1e-9);
        report.attempted += (load.latency_us.len() as u64).max(load.failed);
        report.failed += load.failed;
        report.failures.extend(load.failures);
        folded
            .latency_ms
            .extend(load.latency_us.iter().map(|us| us / 1e3));
        client_ns += load.client_ns;
        folded.wall_ns += load.wall.as_nanos() as f64;
        report.absorb(load.tracer);
        probes.absorb(load.clock);
    }
    folded.client_us = client_ns / 1e3 / folded.latency_ms.len().max(1) as f64;
    let factor = probes.median_factor();
    folded.rps /= factor;
    if !folded.latency_ms.is_empty() {
        folded.p50_ms = median(&folded.latency_ms) * factor;
    }
    clock.absorb(probes);
    folded
}

/// The measured window of `total`, in segments. The traced window is one
/// segment: its spans are read one by one, not summarized.
fn measure(
    ctx: &Ctx,
    kind: Kind,
    set: &Setup,
    total: Duration,
    traced: bool,
    report: &mut Report,
    clock: &mut Clock,
) -> Folded {
    let count = if traced {
        1
    } else {
        ((total.as_secs_f64() / MIN_SEGMENT.as_secs_f64()) as usize).clamp(1, SEGMENTS)
    };
    let mut all = Folded::default();
    let (mut rps, mut p50_ms, mut client_us) = (Vec::new(), Vec::new(), 0.0);
    for segment in 0..count {
        let loads = load(
            ctx,
            kind,
            set.fleet.addr(),
            &set.requests,
            total / count as u32,
            segment,
            traced,
        );
        let one = fold(report, clock, loads);
        if one.latency_ms.is_empty() {
            continue;
        }
        rps.push(one.rps);
        p50_ms.push(one.p50_ms);
        client_us += one.client_us * one.latency_ms.len() as f64;
        all.wall_ns += one.wall_ns;
        all.latency_ms.extend(one.latency_ms);
    }
    if !rps.is_empty() {
        all.rps = median(&rps);
        all.p50_ms = median(&p50_ms);
        all.client_us = client_us / all.latency_ms.len() as f64;
    }
    all
}

pub fn run(ctx: &mut Ctx, kind: Kind) -> Report {
    llhd_blaze::register();
    let mut report = Report::default();

    // Expected answers first, untimed: committed ones for the paper
    // designs, the interpreter's for another seed's generated designs.
    let (sources, cycles) = if kind == Kind::Churn {
        (churn_sources(ctx.seed), CHURN_CYCLES)
    } else {
        (paper_sources(), SHORT_CYCLES)
    };
    let traced_answers = kind == Kind::Trace;
    let expected: Vec<SimAnswer> = sources
        .iter()
        .map(|s| {
            ctx.golden.sim(&s.key, cycles, traced_answers, || {
                interpret(&s.build(), &s.top, s.until_ns(cycles), traced_answers)
            })
        })
        .collect();
    drop(sources);

    let seed = ctx.seed;
    let mut clock = Clock::new(!ctx.trace);
    let set = timed_setups(
        ctx,
        &mut report,
        Some(&mut clock),
        || setup(kind, seed, &expected),
        |old: Setup| old.fleet.shutdown(),
    );
    report.attempted += set.attempted;
    for failure in &set.failures {
        report.fail(failure.clone());
    }
    report.notes.push(format!(
        "closed loop, {} client connections, {} distinct requests, up to {} segments on fresh connections, {} ms warm-up each",
        clients(),
        set.requests.len(),
        SEGMENTS,
        WARM_UP.as_millis()
    ));

    let share = if ctx.trace { 0.2 } else { 1.0 };
    let before = set.fleet.counters();
    let untraced = measure(
        ctx,
        kind,
        &set,
        ctx.budget(share),
        false,
        &mut report,
        &mut clock,
    );
    if untraced.latency_ms.is_empty() {
        report.fail("no request completed".to_string());
        set.fleet.shutdown();
        return report;
    }
    if !ctx.trace {
        report.set_sampled("throughput", untraced.rps, untraced.latency_ms.len());
        report.set_sampled("latency_p50_ms", untraced.p50_ms, untraced.latency_ms.len());
        report.notes.push(clock.note());
        set.fleet.shutdown();
        return report;
    }

    // The per-layer run. Counters first: they describe the untraced load.
    let after = set.fleet.counters();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    report.set(
        "server.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    report.set("server.evictions", after.evictions - before.evictions);
    report.set("server.shed", after.shed - before.shed);
    report.set("server.panics_caught", after.panics - before.panics);
    let untraced_p50_us = untraced.p50_ms * 1e3;
    for (name, q) in [
        ("server.latency_p90_ms", 0.9),
        ("server.latency_p99_ms", 0.99),
    ] {
        report.set_sampled(
            name,
            quantile(&untraced.latency_ms, q),
            untraced.latency_ms.len(),
        );
    }

    // The same load with client spans.
    let traced = measure(
        ctx,
        kind,
        &set,
        ctx.budget(0.2),
        true,
        &mut report,
        &mut clock,
    );
    report.set(
        "harness.trace_overhead_pct",
        100.0 * (untraced.rps / traced.rps.max(1e-9) - 1.0),
    );
    report.set("harness.client_us", traced.client_us);
    report.set("harness.clock_step_ns", clock.median_step());
    report.attribute(traced.wall_ns);

    replay(ctx, kind, &set, untraced_p50_us, &mut report);
    if kind == Kind::Route {
        router_probes(ctx, &set, &after, untraced_p50_us, &mut report);
    } else {
        report.set(
            "server.ping_rtt_us",
            ping_rtt_us(set.fleet.addr(), ctx.budget(0.05)),
        );
    }
    match kind {
        Kind::Warm => api_probes(ctx, &set.items, &mut report),
        Kind::Churn => miss_probes(ctx, &set.items, &mut report),
        Kind::Trace | Kind::Route => {}
    }
    set.fleet.shutdown();
    report
}

/// Median round trip of a bare `ping`, one connection.
fn ping_rtt_us(addr: SocketAddr, budget: Duration) -> f64 {
    let mut client = LineClient::connect(addr).expect("connect");
    let mut samples = Vec::new();
    repeat_for(budget, 100, || {
        let start = Instant::now();
        client.call(PING).expect("pong");
        samples.push(start.elapsed().as_nanos() as f64 / 1e3);
    });
    median(&samples)
}

/// The server's inside is opaque to a client, so the same lines are
/// replayed in this process through the public stack, one span per layer:
/// `Json::parse` → `Request::parse` → `handle_line` → `to_string`, and
/// beside them the hit path a warm request takes inside (`SessionBuilder::
/// build` over a warm cache, `run`, `to_vcd`). What the client saw beyond
/// that is reported as wire and dispatch time rather than guessed.
fn replay(ctx: &Ctx, kind: Kind, set: &Setup, tcp_p50_us: f64, report: &mut Report) {
    let state = Arc::clone(set.fleet.workers[0].state());
    let mut t = ctx.tracer(true, 9);
    let lines: Vec<&str> = set
        .requests
        .iter()
        .map(|r| {
            std::str::from_utf8(&r.line)
                .expect("requests are UTF-8")
                .trim_end()
        })
        .collect();
    // On a routed fleet a worker only holds its own designs; replay those.
    let resident: Vec<usize> = (0..lines.len())
        .filter(|&i| {
            fnv1a(state.handle_line(lines[i]).0.to_string().as_bytes()) == set.requests[i].expect
        })
        .collect();
    let (mut parse_s, mut proto_us, mut handle_us, mut encode_s) =
        (0.0, Vec::new(), Vec::new(), 0.0);
    let (mut request_bytes, mut response_bytes) = (0usize, 0usize);
    let mut responses = Vec::new();
    let mut rounds = 0;
    repeat_for(ctx.budget(0.15), 2, || {
        rounds += 1;
        for &i in &resident {
            t.next_op();
            let op = t.enter("harness.replay");
            let (value, ns) = timed(&mut t, "json.parse", || {
                Json::parse(lines[i]).expect("request parses")
            });
            parse_s += ns / 1e9;
            request_bytes += lines[i].len();
            let (_, ns) = timed(&mut t, "protocol.parse", || {
                Request::parse(&value).expect("request is valid")
            });
            proto_us.push(ns / 1e3);
            let ((response, _), ns) =
                timed(&mut t, "server.handle_line", || state.handle_line(lines[i]));
            handle_us.push(ns / 1e3);
            let (text, ns) = timed(&mut t, "json.encode", || response.to_string());
            encode_s += ns / 1e9;
            response_bytes += text.len();
            t.exit(op);
            if rounds == 1 {
                report.op((fnv1a(text.as_bytes()) != set.requests[i].expect)
                    .then(|| format!("{}: in-process response differs", set.requests[i].label)));
                responses.push(text);
            }
        }
    });
    // Parse the response lines too: the router does, and so does any client.
    let (mut resp_parse_s, mut resp_bytes) = (0.0, 0usize);
    for text in &responses {
        let (_, ns) = timed(&mut t, "json.parse", || {
            Json::parse(text).expect("response parses")
        });
        resp_parse_s += ns / 1e9;
        resp_bytes += text.len();
    }
    report.set(
        "json.parse_mb_per_s",
        (request_bytes + resp_bytes) as f64 / 1e6 / (parse_s + resp_parse_s),
    );
    report.set(
        "json.encode_mb_per_s",
        response_bytes as f64 / 1e6 / encode_s,
    );
    report.set_sampled("protocol.parse_us", median(&proto_us), proto_us.len());
    let handle_p50 = median(&handle_us);

    // `LineReader` over the recorded response lines.
    let mut wire = Vec::new();
    for text in &responses {
        wire.extend_from_slice(text.as_bytes());
        wire.push(b'\n');
    }
    let mut read_s = Vec::new();
    repeat_for(ctx.budget(0.02), 3, || {
        let mut reader = LineReader::new(Cursor::new(&wire));
        let start = Instant::now();
        while let Some(line) = reader.next_line().expect("cursor reads") {
            black_box(line);
        }
        read_s.push(start.elapsed().as_secs_f64());
    });
    report.set(
        "wire.read_mb_per_s",
        wire.len() as f64 / 1e6 / median(&read_s),
    );

    // The hit path inside a warm request.
    let cache = DesignCache::new();
    let (mut build_us, mut run_us, mut vcd_s) = (Vec::new(), Vec::new(), 0.0);
    let (mut vcd_bytes, mut events, mut first) = (0usize, 0usize, true);
    repeat_for(ctx.budget(0.1), 2, || {
        for &i in &resident {
            let item = &set.items[i];
            let mut config = SimConfig::until_nanos(item.until_ns);
            config.trace = kind == Kind::Trace;
            let key = DesignCache::fingerprint(&item.module);
            let build = || {
                SimSession::builder(&item.module, &item.source.top)
                    .engine(EngineKind::Compile)
                    .config(config.clone())
                    .cache(&cache)
                    .cache_key(key)
                    .build()
                    .expect("warm design builds")
            };
            if first {
                build();
            }
            t.next_op();
            let (session, ns) = timed(&mut t, "api.build_hit", build);
            build_us.push(ns / 1e3);
            let (result, ns) = timed(&mut t, "blaze.run", || session.run().expect("runs"));
            run_us.push(ns / 1e3);
            if kind == Kind::Trace {
                let (vcd, ns) = timed(&mut t, "trace.to_vcd", || result.trace.to_vcd("1fs"));
                vcd_s += ns / 1e9;
                vcd_bytes += vcd.len();
                if first {
                    events += result.trace.len();
                }
            }
        }
        first = false;
    });
    let inner_us = median(&build_us) + median(&run_us);
    match kind {
        Kind::Trace => {
            report.set_sampled("server.handle_line_vcd_us", handle_p50, handle_us.len());
            report.set("server.wire_vcd_us", tcp_p50_us - handle_p50);
            report.set("trace.to_vcd_mb_per_s", vcd_bytes as f64 / 1e6 / vcd_s);
            report.set(
                "trace.vcd_bytes",
                (vcd_bytes * resident.len() / build_us.len().max(1)) as f64,
            );
            report.set("trace.events", events as f64);
        }
        _ => {
            report.set_sampled("server.handle_line_us", handle_p50, handle_us.len());
            if kind != Kind::Route {
                report.set("server.wire_us", tcp_p50_us - handle_p50);
            }
            if kind != Kind::Churn {
                report.set_sampled("api.build_hit_us", median(&build_us), build_us.len());
                report.set("server.dispatch_us", handle_p50 - inner_us);
            }
        }
    }
    report.absorb(t);
}

/// `route-warm` only: the router's own round trip, its counters, and the
/// hop — the routed latency minus that of the same keyed traffic sent
/// straight to the worker that owns each design.
fn router_probes(
    ctx: &Ctx,
    set: &Setup,
    after: &Counters,
    routed_p50_us: f64,
    report: &mut Report,
) {
    let router = set.fleet.router.as_ref().expect("route-warm has a router");
    report.set(
        "router.ping_rtt_us",
        ping_rtt_us(router.addr(), ctx.budget(0.05)),
    );
    let (stats, _) = router.state().handle_line(STATS);
    let counter = |name: &str| {
        stats
            .get("result")
            .and_then(|r| r.get("router"))
            .and_then(|r| r.get(name))
            .and_then(Json::as_int)
            .map_or(0.0, |n| n as f64)
    };
    report.set("router.retried", counter("retried"));
    report.set("router.shed", counter("shed"));
    let total: f64 = after.requests.iter().sum();
    report.set(
        "router.worker_share_max",
        after.requests.iter().fold(0.0f64, |a, &b| a.max(b)) / total.max(1.0),
    );

    // Which worker answers which key.
    let owners: Vec<Vec<Req>> = set
        .fleet
        .workers
        .iter()
        .map(|w| {
            set.requests
                .iter()
                .filter(|r| {
                    let line = std::str::from_utf8(&r.line).expect("UTF-8").trim_end();
                    fnv1a(w.state().handle_line(line).0.to_string().as_bytes()) == r.expect
                })
                .cloned()
                .collect()
        })
        .collect();
    let direct = |requests: &[Vec<Req>], budget: Duration| -> Vec<f64> {
        let begin = Instant::now();
        let stop = begin + budget;
        let loads: Vec<Load> = std::thread::scope(|scope| {
            let handles: Vec<_> = set
                .fleet
                .workers
                .iter()
                .zip(requests)
                .filter(|(_, owned)| !owned.is_empty())
                .map(|(w, owned)| {
                    let addr = w.addr();
                    let mut k = 0;
                    let next = move || {
                        k += 1;
                        k % owned.len()
                    };
                    scope.spawn(move || {
                        closed_loop(
                            addr,
                            owned,
                            next,
                            begin,
                            stop,
                            Tracer::off(),
                            Clock::new(false),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        loads.into_iter().flat_map(|l| l.latency_us).collect()
    };
    let direct_us = direct(&owners, ctx.budget(0.1));
    report.set_sampled(
        "router.hop_us",
        routed_p50_us - median(&direct_us),
        direct_us.len(),
    );

    // The same hop with `trace:vcd` responses, a small sample: warm a
    // traced request per design through the router, then time it routed
    // and direct.
    let mut client = LineClient::connect(router.addr()).expect("connect");
    let mut traced: Vec<Vec<Req>> = vec![Vec::new(); owners.len()];
    for (worker, owned) in owners.iter().enumerate() {
        for request in owned {
            let text = std::str::from_utf8(&request.line)
                .expect("UTF-8")
                .trim_end();
            let mut line = text.strip_suffix('}').expect("an object").to_string();
            line.push_str(",\"trace\":\"vcd\"}\n");
            let expect = fnv1a(client.call(line.as_bytes()).expect("routed traced request"));
            traced[worker].push(Req {
                line: line.into_bytes(),
                expect,
                label: request.label.clone(),
            });
        }
    }
    let mut routed_us = Vec::new();
    repeat_for(ctx.budget(0.05), 1, || {
        for request in traced.iter().flatten() {
            let start = Instant::now();
            let digest = fnv1a(client.call(&request.line).expect("routed traced request"));
            routed_us.push(start.elapsed().as_nanos() as f64 / 1e3);
            report.op((digest != request.expect)
                .then(|| format!("{}: traced response differs", request.label)));
        }
    });
    let direct_vcd_us = direct(&traced, ctx.budget(0.05));
    report.set_sampled(
        "router.hop_vcd_us",
        median(&routed_us) - median(&direct_vcd_us),
        routed_us.len(),
    );
}

/// `serve-warm` only: the rest of `llhd-sim::api` a server leans on.
fn api_probes(ctx: &Ctx, items: &[Item], report: &mut Report) {
    // `run_batch` is what the server's dispatcher calls.
    let cache = DesignCache::new();
    let jobs: Vec<BatchJob> = items
        .iter()
        .map(|item| BatchJob {
            module: &item.module,
            top: &item.source.top,
            engine: EngineKind::Compile,
            config: SimConfig::until_nanos(item.until_ns).without_trace(),
            cache_key: Some(DesignCache::fingerprint(&item.module)),
        })
        .collect();
    SimSession::run_batch(&jobs, Some(&cache));
    let mut batch_s = Vec::new();
    repeat_for(ctx.budget(0.05), 3, || {
        let start = Instant::now();
        for result in SimSession::run_batch(&jobs, Some(&cache)) {
            black_box(result.expect("batch job runs"));
        }
        batch_s.push(start.elapsed().as_secs_f64());
    });
    report.set_sampled(
        "api.batch_jobs_per_s",
        jobs.len() as f64 / median(&batch_s),
        batch_s.len(),
    );

    // Interactive stepping and checkpoints on the largest design.
    let item = items
        .iter()
        .max_by_key(|item| module_insts(&item.module))
        .expect("ten designs");
    let build = || {
        SimSession::builder(&item.module, &item.source.top)
            .engine(EngineKind::Compile)
            .config(SimConfig::until_nanos(item.source.until_ns(1_000_000)).without_trace())
            .build()
            .expect("builds")
    };
    let mut live = build();
    let probe = live
        .design()
        .signals
        .iter()
        .map(|s| s.name.clone())
        .find(|name| name.ends_with(&item.source.probe))
        .expect("probe signal exists");
    let mut pair_ns = Vec::new();
    repeat_for(ctx.budget(0.03), 3, || {
        let start = Instant::now();
        for _ in 0..64 {
            live.step().expect("steps");
            black_box(live.peek(&probe).expect("peeks"));
        }
        pair_ns.push(start.elapsed().as_nanos() as f64 / 64.0);
    });
    report.set_sampled("api.step_peek_ns", median(&pair_ns), pair_ns.len());
    let mut target = build();
    let (mut checkpoint_us, mut restore_us) = (Vec::new(), Vec::new());
    repeat_for(ctx.budget(0.03), 3, || {
        let start = Instant::now();
        let state = live.checkpoint().expect("checkpoints");
        checkpoint_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        let start = Instant::now();
        target.restore(&state).expect("restores");
        restore_us.push(start.elapsed().as_nanos() as f64 / 1e3);
    });
    report.set_sampled(
        "api.checkpoint_us",
        median(&checkpoint_us),
        checkpoint_us.len(),
    );
    report.set_sampled("api.restore_us", median(&restore_us), restore_us.len());
    report.set(
        "api.checkpoint_bytes",
        live.checkpoint().expect("checkpoints").as_bytes().len() as f64,
    );
}

/// `serve-churn` only: what a cache miss pays, layer by layer, summed over
/// the distinct designs of the traffic.
fn miss_probes(ctx: &Ctx, items: &[Item], report: &mut Report) {
    let slice = ctx.budget(0.04);
    // Median seconds of one pass of `f` over every design.
    let per_pass = |f: &mut dyn FnMut(usize, &Item)| -> f64 {
        median_secs(slice, || {
            for (i, item) in items.iter().enumerate() {
                f(i, item);
            }
        })
    };
    let n = items.len() as f64;
    let texts: Vec<String> = items
        .iter()
        .map(|item| write_module(&item.module))
        .collect();
    let text_mb = texts.iter().map(String::len).sum::<usize>() as f64 / 1e6;
    let parse_s = per_pass(&mut |i, _| {
        black_box(parse_module(&texts[i]).expect("parses"));
    });
    report.set("assembly.parse_mb_per_s", text_mb / parse_s);
    let encoded: Vec<Vec<u8>> = items
        .iter()
        .map(|item| encode_module(&item.module))
        .collect();
    let code_mb = encoded.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    let encode_s = per_pass(&mut |_, item| {
        black_box(encode_module(&item.module));
    });
    report.set("bitcode.encode_mb_per_s", code_mb / encode_s);
    let decode_s = per_pass(&mut |i, _| {
        black_box(decode_module(&encoded[i]).expect("decodes"));
    });
    report.set("bitcode.decode_mb_per_s", code_mb / decode_s);
    let fingerprint_s = per_pass(&mut |_, item| {
        black_box(DesignCache::fingerprint(&item.module));
    });
    report.set("api.fingerprint_us", fingerprint_s * 1e6 / n);
    let elaborate_s = per_pass(&mut |_, item| {
        black_box(elaborate(&item.module, &item.source.top).expect("elaborates"));
    });
    report.set("design.elaborate_us", elaborate_s * 1e6 / n);
    let designs: Vec<_> = items
        .iter()
        .map(|item| Arc::new(elaborate(&item.module, &item.source.top).expect("elaborates")))
        .collect();
    report.set(
        "design.signals",
        designs.iter().map(|d| d.num_signals()).sum::<usize>() as f64,
    );
    report.set(
        "design.instances",
        designs.iter().map(|d| d.num_instances()).sum::<usize>() as f64,
    );
    let compile_s = per_pass(&mut |i, item| {
        black_box(compile_design(&item.module, Arc::clone(&designs[i])).expect("compiles"));
    });
    report.set("blaze.compile_design_us", compile_s * 1e6 / n);
    // The whole miss: fingerprint + elaborate + compile + instantiate
    // through the session API over an empty cache.
    let miss_s = per_pass(&mut |_, item| {
        let cache = DesignCache::new();
        black_box(
            SimSession::builder(&item.module, &item.source.top)
                .engine(EngineKind::Compile)
                .config(SimConfig::until_nanos(item.until_ns).without_trace())
                .cache(&cache)
                .build()
                .expect("builds"),
        );
    });
    report.set("api.build_miss_us", miss_s * 1e6 / n);
}
