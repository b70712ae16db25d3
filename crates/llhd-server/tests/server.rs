//! Integration tests of the persistent simulation server: protocol round
//! trips over real TCP, cache sharing across concurrent clients,
//! malformed-input robustness, bounded-cache behaviour, and graceful
//! shutdown draining in-flight work.

use llhd_server::json::Json;
use llhd_server::{Client, Server, ServerConfig};
use llhd_sim::api::{EngineKind, SimSession};
use llhd_sim::SimConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BLINK: &str = r#"
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

fn spawn(config: ServerConfig) -> llhd_server::RunningServer {
    Server::spawn_tcp(config, "127.0.0.1:0").expect("bind an ephemeral port")
}

fn sim_request(fields: Vec<(&'static str, Json)>) -> Json {
    let mut all = vec![("type", Json::str("sim"))];
    all.extend(fields);
    Json::obj(all)
}

fn shutdown(client: &mut Client) {
    let ack = client
        .request(&Json::obj([("type", Json::str("shutdown"))]))
        .unwrap();
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));
}

/// Pull a counter out of a `stats` response.
fn cache_counter(stats: &Json, name: &str) -> i128 {
    stats
        .get("result")
        .and_then(|r| r.get("cache"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_int)
        .unwrap_or_else(|| panic!("stats response lacks cache.{}: {}", name, stats))
}

#[test]
fn sim_round_trip_reuses_the_design_key() {
    let running = spawn(ServerConfig::default());
    let mut client = Client::connect(running.addr()).unwrap();

    // First request ships the source; the response returns the design key
    // and the run statistics of an in-process session.
    let first = client
        .request(&sim_request(vec![
            ("source", Json::str(BLINK)),
            ("top", Json::str("blink")),
            ("engine", Json::str("interpret")),
            ("until_ns", Json::Int(100)),
            ("id", Json::Int(1)),
        ]))
        .unwrap();
    assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{}", first);
    assert_eq!(first.get("id"), Some(&Json::Int(1)));
    let result = first.get("result").unwrap();
    let key = result.get("design").and_then(Json::as_str).unwrap().to_string();
    let reference = {
        let module = llhd::assembly::parse_module(BLINK).unwrap();
        SimSession::builder(&module, "blink")
            .engine(EngineKind::Interpret)
            .config(SimConfig::until_nanos(100))
            .build()
            .unwrap()
            .run()
            .unwrap()
    };
    assert_eq!(
        result.get("end_time_fs").and_then(Json::as_int).unwrap() as u128,
        reference.end_time.as_femtos()
    );
    assert_eq!(
        result.get("signal_changes").and_then(Json::as_int).unwrap() as usize,
        reference.signal_changes
    );

    // Second request reuses the key — no source on the wire — and asks for
    // the VCD, which must match the in-process trace byte for byte.
    let second = client
        .request(&sim_request(vec![
            ("design", Json::str(key)),
            ("top", Json::str("blink")),
            ("engine", Json::str("interpret")),
            ("until_ns", Json::Int(100)),
            ("trace", Json::str("vcd")),
        ]))
        .unwrap();
    assert_eq!(second.get("ok"), Some(&Json::Bool(true)), "{}", second);
    let vcd = second
        .get("result")
        .and_then(|r| r.get("trace_vcd"))
        .and_then(Json::as_str)
        .unwrap();
    assert_eq!(vcd, reference.trace.to_vcd("1fs"));

    // The repeat run was served from the warmed cache.
    let stats = client.request(&Json::obj([("type", Json::str("stats"))])).unwrap();
    assert_eq!(cache_counter(&stats, "elaborate_hits"), 1);
    assert_eq!(cache_counter(&stats, "elaborate_misses"), 1);
    shutdown(&mut client);
    running.join().unwrap();
}

#[test]
fn a_real_design_round_trips_through_the_compiled_engine() {
    // One of the paper's benchmark designs, shipped as assembly text (what
    // a real client would send), run on the compiled engine.
    let design = llhd_designs::all_designs()
        .into_iter()
        .find(|d| d.name == "RR Arbiter")
        .expect("benchmark design exists");
    let module = design.build().unwrap();
    let source = llhd::assembly::write_module(&module);
    let until = design.sim_time_ns(20);

    let running = spawn(ServerConfig::default());
    let mut client = Client::connect(running.addr()).unwrap();
    let response = client
        .request(&sim_request(vec![
            ("source", Json::str(source)),
            ("top", Json::str(design.top)),
            ("engine", Json::str("compile")),
            ("until_ns", Json::uint(until)),
        ]))
        .unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{}", response);

    let reference = SimSession::builder(&module, design.top)
        .engine(EngineKind::Compile)
        .config(SimConfig::until_nanos(until).without_trace())
        .build()
        .unwrap()
        .run()
        .unwrap();
    let result = response.get("result").unwrap();
    assert_eq!(
        result.get("signal_changes").and_then(Json::as_int).unwrap() as usize,
        reference.signal_changes
    );
    assert_eq!(result.get("engine").and_then(Json::as_str), Some("compile"));
    shutdown(&mut client);
    running.join().unwrap();
}

#[test]
fn concurrent_clients_on_one_design_compile_once() {
    let running = spawn(ServerConfig::default());
    let addr = running.addr();
    // Four clients race the same design through the compiled engine; the
    // cache's per-key locking must make exactly one of them compile.
    let workers: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let response = client
                    .request(&sim_request(vec![
                        ("source", Json::str(BLINK)),
                        ("top", Json::str("blink")),
                        ("engine", Json::str("compile")),
                        ("until_ns", Json::Int(50 + i)),
                    ]))
                    .unwrap();
                assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{}", response);
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    let mut client = Client::connect(addr).unwrap();
    let stats = client.request(&Json::obj([("type", Json::str("stats"))])).unwrap();
    assert_eq!(cache_counter(&stats, "compile_misses"), 1, "{}", stats);
    assert_eq!(cache_counter(&stats, "compile_hits"), 3, "{}", stats);
    assert_eq!(cache_counter(&stats, "entries"), 1);
    shutdown(&mut client);
    running.join().unwrap();
}

#[test]
fn batch_requests_fan_out_and_answer_in_order() {
    let running = spawn(ServerConfig::default());
    let mut client = Client::connect(running.addr()).unwrap();
    let jobs: Vec<Json> = (1..=4)
        .map(|i| {
            Json::obj([
                ("source", Json::str(BLINK)),
                ("top", Json::str("blink")),
                ("engine", Json::str("interpret")),
                ("until_ns", Json::Int(10 * i)),
            ])
        })
        .collect();
    let response = client
        .request(&Json::obj([
            ("type", Json::str("batch")),
            ("jobs", Json::Arr(jobs)),
        ]))
        .unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{}", response);
    let results = response
        .get("result")
        .and_then(|r| r.get("results"))
        .and_then(Json::as_arr)
        .unwrap();
    assert_eq!(results.len(), 4);
    for (i, entry) in results.iter().enumerate() {
        assert_eq!(entry.get("ok"), Some(&Json::Bool(true)));
        let end = entry
            .get("result")
            .and_then(|r| r.get("end_time_fs"))
            .and_then(Json::as_int)
            .unwrap();
        assert_eq!(end as u128, 10 * (i as u128 + 1) * 1_000_000, "job {} out of order", i);
    }
    // One design, four jobs: one elaboration, three hits.
    let stats = client.request(&Json::obj([("type", Json::str("stats"))])).unwrap();
    assert_eq!(cache_counter(&stats, "elaborate_misses"), 1);
    assert_eq!(cache_counter(&stats, "elaborate_hits"), 3);
    shutdown(&mut client);
    running.join().unwrap();
}

#[test]
fn malformed_requests_are_answered_not_fatal() {
    let running = spawn(ServerConfig::default());
    let mut client = Client::connect(running.addr()).unwrap();
    let cases: Vec<(Json, &str)> = vec![
        // Not a request object at all (valid JSON, wrong shape).
        (Json::Arr(vec![Json::Int(1)]), "protocol"),
        // Unknown type.
        (Json::obj([("type", Json::str("frobnicate"))]), "protocol"),
        // Sim without a design reference.
        (
            Json::obj([("type", Json::str("sim")), ("top", Json::str("x"))]),
            "protocol",
        ),
        // Invalid LLHD assembly.
        (
            sim_request(vec![
                ("source", Json::str("proc @broken (")),
                ("top", Json::str("broken")),
            ]),
            "source",
        ),
        // Valid source, nonexistent top unit.
        (
            sim_request(vec![
                ("source", Json::str(BLINK)),
                ("top", Json::str("nonexistent")),
            ]),
            "elaborate",
        ),
        // A design key that was never submitted.
        (
            sim_request(vec![
                ("design", Json::str("deadbeef")),
                ("top", Json::str("x")),
            ]),
            "unknown_design",
        ),
        // A design key that is not even hex.
        (
            sim_request(vec![
                ("design", Json::str("not-hex!")),
                ("top", Json::str("x")),
            ]),
            "protocol",
        ),
    ];
    for (request, kind) in cases {
        let response = client.request(&request).unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{}", response);
        assert_eq!(
            response.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some(kind),
            "{}",
            response
        );
    }
    // Raw garbage that is not JSON at all: the server answers with a parse
    // error on the same connection. (Client::request serializes valid
    // JSON, so speak the socket directly.)
    use std::io::{BufRead, BufReader, Write};
    let mut raw = std::net::TcpStream::connect(running.addr()).unwrap();
    writeln!(raw, "this is not json").unwrap();
    let mut line = String::new();
    BufReader::new(raw.try_clone().unwrap()).read_line(&mut line).unwrap();
    let response = Json::parse(line.trim()).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        response.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("parse")
    );
    // The server survived all of it: a normal request still works.
    let pong = client.request(&Json::obj([("type", Json::str("ping"))])).unwrap();
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
    shutdown(&mut client);
    running.join().unwrap();
}

#[test]
fn bounded_server_cache_evicts_and_reports() {
    let running = spawn(ServerConfig {
        cache_capacity: Some(2),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(running.addr()).unwrap();
    let mut keys = Vec::new();
    for delay in ["3ns", "7ns", "11ns"] {
        let source = BLINK.replace("5ns", delay);
        let response = client
            .request(&sim_request(vec![
                ("source", Json::str(source)),
                ("top", Json::str("blink")),
                ("engine", Json::str("interpret")),
                ("until_ns", Json::Int(50)),
            ]))
            .unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{}", response);
        keys.push(
            response
                .get("result")
                .and_then(|r| r.get("design"))
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
        );
    }
    let stats = client.request(&Json::obj([("type", Json::str("stats"))])).unwrap();
    assert_eq!(cache_counter(&stats, "entries"), 2, "{}", stats);
    assert_eq!(cache_counter(&stats, "evictions"), 1);
    assert_eq!(cache_counter(&stats, "capacity"), 2);
    // The evicted (least recently used) design's key is gone from the
    // store with its module: referring to it demands a resend of the
    // source.
    let evicted = client
        .request(&sim_request(vec![
            ("design", Json::str(keys[0].clone())),
            ("top", Json::str("blink")),
        ]))
        .unwrap();
    assert_eq!(
        evicted.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("unknown_design"),
        "{}",
        evicted
    );
    // The hot design is still resident and served from the cache.
    let hot = client
        .request(&sim_request(vec![
            ("design", Json::str(keys[2].clone())),
            ("top", Json::str("blink")),
            ("until_ns", Json::Int(50)),
        ]))
        .unwrap();
    assert_eq!(hot.get("ok"), Some(&Json::Bool(true)), "{}", hot);
    shutdown(&mut client);
    running.join().unwrap();
}

/// Check the one-store invariant against `stats`: a key is servable by
/// `design` if and only if `cache.designs` lists it, `resident_modules`
/// counts exactly the listed keys, and the store stays within its
/// capacity of 2. Returns the listed keys.
fn assert_one_store(client: &mut Client, keys: &[String]) -> Vec<String> {
    let stats = client
        .request(&Json::obj([("type", Json::str("stats"))]))
        .unwrap();
    let result = stats.get("result").unwrap();
    let mut listed: Vec<String> = result
        .get("cache")
        .and_then(|c| c.get("designs"))
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|d| d.get("design").and_then(Json::as_str).unwrap().to_string())
        .collect();
    listed.sort();
    listed.dedup();
    let resident = result
        .get("resident_modules")
        .and_then(Json::as_int)
        .unwrap();
    assert_eq!(resident as usize, listed.len(), "{}", stats);
    assert!(listed.len() <= 2, "{}", stats);
    for key in keys {
        let response = client
            .request(&sim_request(vec![
                ("design", Json::str(key.clone())),
                ("top", Json::str("blink")),
                ("until_ns", Json::Int(20)),
            ]))
            .unwrap();
        let servable = response.get("ok") == Some(&Json::Bool(true));
        assert_eq!(servable, listed.contains(key), "{}: {}", key, response);
        if !servable {
            let kind = response.get("error").and_then(|e| e.get("kind"));
            assert_eq!(kind.and_then(Json::as_str), Some("unknown_design"));
        }
    }
    listed
}

#[test]
fn one_store_serves_exactly_the_designs_it_lists() {
    let running = spawn(ServerConfig {
        cache_capacity: Some(2),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(running.addr()).unwrap();
    let mut keys: Vec<String> = Vec::new();
    let inline = |client: &mut Client, delay: &str, top: &str| {
        client
            .request(&sim_request(vec![
                ("source", Json::str(BLINK.replace("5ns", delay))),
                ("top", Json::str(top)),
                ("until_ns", Json::Int(20)),
            ]))
            .unwrap()
    };
    let key_of = |response: &Json| {
        let result = response
            .get("result")
            .unwrap_or_else(|| panic!("{}", response));
        result
            .get("design")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    };
    // Three designs through a two-design store, each resent once.
    for delay in ["3ns", "7ns", "11ns", "3ns", "7ns", "11ns"] {
        let response = inline(&mut client, delay, "blink");
        let key = key_of(&response);
        if !keys.contains(&key) {
            keys.push(key.clone());
        }
        let listed = assert_one_store(&mut client, &keys);
        assert!(listed.contains(&key), "a served design is resident");
    }
    assert_eq!(keys.len(), 3);
    // A fresh source whose top fails to elaborate leaves nothing behind.
    let failed = inline(&mut client, "13ns", "nonexistent");
    assert_eq!(failed.get("ok"), Some(&Json::Bool(false)), "{}", failed);
    let fresh = llhd::assembly::parse_module(&BLINK.replace("5ns", "13ns")).unwrap();
    keys.push(format!(
        "{:032x}",
        llhd_sim::DesignCache::fingerprint(&fresh)
    ));
    let listed = assert_one_store(&mut client, &keys);
    assert!(!listed.contains(&keys[3]));
    // A resident design keeps its module when a request names a top it
    // lacks, and a resent source brings an evicted design back.
    let resident = listed[0].clone();
    let delay = ["3ns", "7ns", "11ns"][keys.iter().position(|k| *k == resident).unwrap()];
    inline(&mut client, delay, "nonexistent");
    assert!(assert_one_store(&mut client, &keys).contains(&resident));
    let evicted = keys[..3].iter().position(|k| !listed.contains(k)).unwrap();
    let back = inline(&mut client, ["3ns", "7ns", "11ns"][evicted], "blink");
    assert!(assert_one_store(&mut client, &keys).contains(&key_of(&back)));
    // A batch of three fresh sources resolves all three before it builds
    // any: a design resolved and not yet built is not evicted, so no
    // build lands in a store entry that has lost its module.
    let jobs = ["17ns", "19ns", "23ns"].map(|delay| {
        Json::obj([
            ("source", Json::str(BLINK.replace("5ns", delay))),
            ("top", Json::str("blink")),
            ("until_ns", Json::Int(20)),
        ])
    });
    let batch = client
        .request(&Json::obj([
            ("type", Json::str("batch")),
            ("jobs", Json::Arr(jobs.to_vec())),
        ]))
        .unwrap();
    let results = batch.get("result").and_then(|r| r.get("results"));
    for entry in results.and_then(Json::as_arr).unwrap() {
        assert_eq!(entry.get("ok"), Some(&Json::Bool(true)), "{}", batch);
        keys.push(key_of(entry));
    }
    assert!(!assert_one_store(&mut client, &keys).is_empty());
    shutdown(&mut client);
    running.join().unwrap();
}

#[test]
fn an_overwide_type_is_a_source_error_not_an_allocation() {
    let running = spawn(ServerConfig::default());
    let mut client = Client::connect(running.addr()).unwrap();
    let overwide = "proc @p () -> () { entry: %c = const i4000000000 0 halt }";
    let response = client
        .request(&sim_request(vec![
            ("source", Json::str(overwide)),
            ("top", Json::str("p")),
        ]))
        .unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{}", response);
    let error = response.get("error").unwrap();
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("source"));
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("i4000000000"), "{}", message);
    // The server keeps serving.
    let next = client
        .request(&sim_request(vec![
            ("source", Json::str(BLINK)),
            ("top", Json::str("blink")),
            ("until_ns", Json::Int(20)),
        ]))
        .unwrap();
    assert_eq!(next.get("ok"), Some(&Json::Bool(true)), "{}", next);
    shutdown(&mut client);
    running.join().unwrap();
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let running = spawn(ServerConfig::default());
    let addr = running.addr();
    // A deliberately long simulation (a million 5 ns wakeups) on one
    // connection...
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client
            .request(&sim_request(vec![
                ("source", Json::str(BLINK)),
                ("top", Json::str("blink")),
                ("engine", Json::str("interpret")),
                ("until_ns", Json::Int(5_000_000)),
            ]))
            .unwrap()
    });
    // ...while a second connection asks for shutdown mid-run.
    std::thread::sleep(Duration::from_millis(30));
    let mut other = Client::connect(addr).unwrap();
    let ack = other.request(&Json::obj([("type", Json::str("shutdown"))])).unwrap();
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));
    // The in-flight run is drained, not dropped: the first client still
    // receives its complete result.
    let response = worker.join().unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{}", response);
    let end_fs = response
        .get("result")
        .and_then(|r| r.get("end_time_fs"))
        .and_then(Json::as_int)
        .unwrap() as u128;
    assert!(
        end_fs >= 4_999_000u128 * 1_000_000,
        "run was cut short at {} fs",
        end_fs
    );
    // And the server process winds down cleanly.
    running.join().unwrap();
}

#[test]
fn a_long_request_does_not_block_a_short_one() {
    let running = spawn(ServerConfig::default());
    let addr = running.addr();
    // Client A: a long simulation (a million 5 ns wakeups, comfortably
    // hundreds of milliseconds).
    let long = std::thread::spawn(move || {
        let started = std::time::Instant::now();
        let mut client = Client::connect(addr).unwrap();
        let response = client
            .request(&sim_request(vec![
                ("source", Json::str(BLINK)),
                ("top", Json::str("blink")),
                ("engine", Json::str("interpret")),
                ("until_ns", Json::Int(5_000_000)),
            ]))
            .unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{}", response);
        started.elapsed()
    });
    // Client B: a tiny simulation submitted while A is in flight must be
    // answered long before A completes — each job runs on its own
    // connection's thread, so nothing queues behind a running job.
    std::thread::sleep(Duration::from_millis(30));
    let started = std::time::Instant::now();
    let mut client = Client::connect(addr).unwrap();
    let response = client
        .request(&sim_request(vec![
            ("source", Json::str(BLINK.replace("5ns", "9ns"))),
            ("top", Json::str("blink")),
            ("engine", Json::str("interpret")),
            ("until_ns", Json::Int(50)),
        ]))
        .unwrap();
    let short_elapsed = started.elapsed();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{}", response);
    let long_elapsed = long.join().unwrap();
    assert!(
        short_elapsed < long_elapsed,
        "short request ({:?}) waited for the long one ({:?})",
        short_elapsed,
        long_elapsed
    );
    shutdown(&mut client);
    running.join().unwrap();
}

#[test]
fn requests_after_shutdown_are_refused_not_hung() {
    // Exercised at the state level (no sockets): once shutdown has begun,
    // a sim request must fail fast with the `shutdown` error kind rather
    // than start a simulation nobody will wait for.
    let server = Server::new(ServerConfig::default());
    let state = server.state();
    state.begin_shutdown();
    let (response, _) = state.handle_line(
        &sim_request(vec![
            ("source", Json::str(BLINK)),
            ("top", Json::str("blink")),
        ])
        .to_string(),
    );
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        response.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("shutdown"),
        "{}",
        response
    );
}

/// A job runs on the thread that handles its line: `handle_line` answers
/// a `sim` and a two-job `batch` on the state of a server that never
/// started serving. The watchdog turns a hang (a job waiting for a
/// serving loop that does not exist) into a failure.
#[test]
fn handle_line_runs_jobs_on_a_server_that_is_not_serving() {
    let state = Server::new(ServerConfig::default()).state();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let job = || {
            vec![
                ("source", Json::str(BLINK)),
                ("top", Json::str("blink")),
                ("until_ns", Json::Int(100)),
            ]
        };
        let (sim, _) = state.handle_line(&sim_request(job()).to_string());
        let batch = Json::obj([
            ("type", Json::str("batch")),
            ("jobs", Json::Arr(vec![Json::obj(job()), Json::obj(job())])),
        ]);
        let (batch, _) = state.handle_line(&batch.to_string());
        let _ = tx.send((sim, batch));
    });
    let (sim, batch) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("handle_line did not answer within 60 s");
    assert_eq!(sim.get("ok"), Some(&Json::Bool(true)), "{}", sim);
    assert_eq!(batch.get("ok"), Some(&Json::Bool(true)), "{}", batch);
    let results = batch
        .get("result")
        .and_then(|r| r.get("results"))
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("batch response lacks results: {}", batch));
    assert_eq!(results.len(), 2, "{}", batch);
    for result in results {
        assert_eq!(result.get("ok"), Some(&Json::Bool(true)), "{}", batch);
    }
}

/// Shutdown waits for in-flight jobs only up to the drain deadline: with
/// 200 ms, `join` returns while a long job still runs on its connection
/// thread. That thread is left to finish, so its client (in this
/// process, which does not exit) still receives the complete result.
#[test]
fn shutdown_stops_waiting_for_jobs_at_the_drain_deadline() {
    let running = spawn(ServerConfig {
        drain_deadline: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    });
    let addr = running.addr();
    let answered = Arc::new(AtomicBool::new(false));
    let long = {
        let answered = Arc::clone(&answered);
        std::thread::spawn(move || {
            // Five million 2 ns wakeups on the interpreter: seconds in a
            // debug build, several times the deadline in a release one.
            let mut client = Client::connect(addr).unwrap();
            let response = client
                .request(&sim_request(vec![
                    ("source", Json::str(BLINK.replace("5ns", "2ns"))),
                    ("top", Json::str("blink")),
                    ("engine", Json::str("interpret")),
                    ("until_ns", Json::Int(5_000_000)),
                ]))
                .unwrap();
            answered.store(true, Ordering::SeqCst);
            response
        })
    };
    let mut other = Client::connect(addr).unwrap();
    let stats = Json::obj([("type", Json::str("stats"))]);
    let inflight = |stats: &Json| {
        let load = stats.get("result").and_then(|r| r.get("load"));
        load.and_then(|l| l.get("inflight")).and_then(Json::as_int)
    };
    while inflight(&other.request(&stats).unwrap()) != Some(1) {
        std::thread::sleep(Duration::from_millis(2));
    }
    let started = Instant::now();
    shutdown(&mut other);
    running.join().unwrap();
    let joined = started.elapsed();
    assert!(
        !answered.load(Ordering::SeqCst),
        "join waited {:?} for the long job instead of stopping at the drain deadline",
        joined
    );
    assert!(joined >= Duration::from_millis(200), "join returned after {:?}", joined);
    let response = long.join().unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{}", response);
}

/// A counter process: enough distinct state (a live variable, a resume
/// point, pending events) that a checkpoint has to carry real engine
/// state. Compiles on blaze, so both engines run it.
const COUNTER: &str = r#"
proc @counter () -> (i8$ %out) {
entry:
    %zero = const i8 0
    %i = var i8 %zero
    br %loop
loop:
    %cur = ld i8* %i
    %one = const i8 1
    %next = add i8 %cur, %one
    st i8* %i, %next
    %delay = const time 1ns
    drv i8$ %out, %next after %delay
    wait %loop for %delay
}
"#;

/// A two-level entity design for the structural queries.
const FOLLOWER: &str = r#"
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
"#;

/// Send one request and require `"ok":true`, returning its `result`.
fn ok_result(client: &mut Client, fields: Vec<(&'static str, Json)>) -> Json {
    let response = client.request(&Json::obj(fields)).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{}", response);
    response.get("result").cloned().unwrap()
}

/// Send one request and require `"ok":false`, returning the error kind.
fn error_kind(client: &mut Client, fields: Vec<(&'static str, Json)>) -> String {
    let response = client.request(&Json::obj(fields)).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{}", response);
    response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

fn session_id(result: &Json) -> String {
    result.get("session").and_then(Json::as_str).unwrap().to_string()
}

/// The acceptance path of the session family, on both engines: create,
/// step, checkpoint, *kill the session*, restore the checkpoint into a
/// brand-new session, resume — and the resumed run's final trace must be
/// byte-identical to an uninterrupted run of the same design.
#[test]
fn session_checkpoint_restore_resumes_byte_identical_over_tcp() {
    let running = spawn(ServerConfig::default());
    let mut client = Client::connect(running.addr()).unwrap();
    for engine in ["interpret", "compile"] {
        let create = |client: &mut Client| {
            ok_result(
                client,
                vec![
                    ("type", Json::str("session.create")),
                    ("source", Json::str(COUNTER)),
                    ("top", Json::str("counter")),
                    ("engine", Json::str(engine)),
                    ("until_ns", Json::Int(50)),
                    ("trace", Json::str("vcd")),
                ],
            )
        };
        // The uninterrupted reference run.
        let full = create(&mut client);
        let full_id = session_id(&full);
        let stepped = ok_result(
            &mut client,
            vec![
                ("type", Json::str("session.step")),
                ("session", Json::str(full_id.clone())),
                ("steps", Json::Int(10_000)),
            ],
        );
        assert_eq!(stepped.get("done"), Some(&Json::Bool(true)), "{}", stepped);
        let full_result = ok_result(
            &mut client,
            vec![
                ("type", Json::str("session.destroy")),
                ("session", Json::str(full_id)),
            ],
        );

        // Run five cycles, checkpoint, and kill the session outright.
        let first = create(&mut client);
        let first_id = session_id(&first);
        assert_eq!(
            first.get("engine").and_then(Json::as_str),
            Some(if engine == "compile" { "blaze" } else { "interp" }),
            "{}",
            first
        );
        ok_result(
            &mut client,
            vec![
                ("type", Json::str("session.step")),
                ("session", Json::str(first_id.clone())),
                ("steps", Json::Int(5)),
            ],
        );
        let checkpoint = ok_result(
            &mut client,
            vec![
                ("type", Json::str("session.checkpoint")),
                ("session", Json::str(first_id.clone())),
            ],
        );
        let state_hex = checkpoint.get("state").and_then(Json::as_str).unwrap().to_string();
        ok_result(
            &mut client,
            vec![
                ("type", Json::str("session.destroy")),
                ("session", Json::str(first_id.clone())),
            ],
        );
        // The killed session is gone.
        assert_eq!(
            error_kind(
                &mut client,
                vec![
                    ("type", Json::str("session.step")),
                    ("session", Json::str(first_id)),
                ],
            ),
            "unknown_session"
        );

        // Restore into a brand-new session and run out the clock.
        let restored = ok_result(
            &mut client,
            vec![
                ("type", Json::str("session.restore")),
                ("source", Json::str(COUNTER)),
                ("top", Json::str("counter")),
                ("engine", Json::str(engine)),
                ("until_ns", Json::Int(50)),
                ("trace", Json::str("vcd")),
                ("state", Json::str(state_hex)),
            ],
        );
        assert_eq!(restored.get("restored"), Some(&Json::Bool(true)), "{}", restored);
        let resumed_id = session_id(&restored);
        ok_result(
            &mut client,
            vec![
                ("type", Json::str("session.step")),
                ("session", Json::str(resumed_id.clone())),
                ("steps", Json::Int(10_000)),
            ],
        );
        let resumed_result = ok_result(
            &mut client,
            vec![
                ("type", Json::str("session.destroy")),
                ("session", Json::str(resumed_id)),
            ],
        );

        // Byte-identical resume: trace, end time, change count.
        for field in ["trace_vcd", "end_time_fs", "signal_changes", "activations"] {
            assert_eq!(
                full_result.get(field),
                resumed_result.get(field),
                "{}: {} diverged after restore",
                engine,
                field
            );
        }
        assert!(
            full_result.get("trace_vcd").and_then(Json::as_str).unwrap().contains("$timescale"),
            "the comparison must cover a real trace"
        );
    }
    shutdown(&mut client);
    running.join().unwrap();
}

/// Structural queries over a session: hierarchy, who-drives, who-watches,
/// and (on the compiled engine) per-unit superop statistics.
#[test]
fn session_queries_report_hierarchy_and_connectivity() {
    let running = spawn(ServerConfig::default());
    let mut client = Client::connect(running.addr()).unwrap();
    let created = ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.create")),
            ("source", Json::str(FOLLOWER)),
            ("top", Json::str("top")),
            ("engine", Json::str("compile")),
            ("until_ns", Json::Int(10)),
        ],
    );
    let id = session_id(&created);

    let hierarchy = ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.query")),
            ("session", Json::str(id.clone())),
            ("query", Json::str("hierarchy")),
        ],
    );
    let nodes = hierarchy.get("hierarchy").and_then(Json::as_arr).unwrap();
    assert!(!nodes.is_empty(), "{}", hierarchy);
    let paths: Vec<&str> = nodes
        .iter()
        .map(|n| n.get("path").and_then(Json::as_str).unwrap())
        .collect();
    assert!(paths.contains(&"top"), "{:?}", paths);
    assert!(paths.iter().any(|p| p.starts_with("top.")), "{:?}", paths);

    let drivers = ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.query")),
            ("session", Json::str(id.clone())),
            ("query", Json::str("drivers")),
            ("signal", Json::str("top.q")),
        ],
    );
    let driving: Vec<&str> = drivers
        .get("drivers")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|d| d.get("path").and_then(Json::as_str).unwrap())
        .collect();
    assert!(
        driving.iter().any(|p| p.starts_with("top.")),
        "the follower instance must drive top.q: {:?}",
        driving
    );

    let watchers = ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.query")),
            ("session", Json::str(id.clone())),
            ("query", Json::str("watchers")),
            ("signal", Json::str("top.a")),
        ],
    );
    assert!(
        !watchers.get("watchers").and_then(Json::as_arr).unwrap().is_empty(),
        "{}",
        watchers
    );

    let stats = ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.query")),
            ("session", Json::str(id.clone())),
            ("query", Json::str("unit_stats")),
        ],
    );
    let units = stats.get("units").and_then(Json::as_arr).unwrap();
    assert!(!units.is_empty(), "compiled sessions report unit stats: {}", stats);
    assert!(
        units.iter().any(|u| {
            u.get("superops").and_then(Json::as_int).unwrap_or(0) > 0
        }),
        "{}",
        stats
    );

    // An unknown signal in a query is the unknown_signal error kind.
    assert_eq!(
        error_kind(
            &mut client,
            vec![
                ("type", Json::str("session.query")),
                ("session", Json::str(id.clone())),
                ("query", Json::str("drivers")),
                ("signal", Json::str("top.nope")),
            ],
        ),
        "unknown_signal"
    );
    ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.destroy")),
            ("session", Json::str(id)),
        ],
    );
    shutdown(&mut client);
    running.join().unwrap();
}

/// Pokes drive the design mid-session, and peeks observe the effect.
#[test]
fn session_poke_feeds_the_running_design() {
    let running = spawn(ServerConfig::default());
    let mut client = Client::connect(running.addr()).unwrap();
    let created = ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.create")),
            ("source", Json::str(FOLLOWER)),
            ("top", Json::str("top")),
            ("engine", Json::str("interpret")),
            ("until_ns", Json::Int(20)),
        ],
    );
    let id = session_id(&created);
    ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.poke")),
            ("session", Json::str(id.clone())),
            ("signal", Json::str("top.a")),
            ("value", Json::Int(99)),
        ],
    );
    ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.step")),
            ("session", Json::str(id.clone())),
            ("steps", Json::Int(10_000)),
        ],
    );
    let peeked = ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.peek")),
            ("session", Json::str(id.clone())),
            ("signal", Json::str("top.q")),
        ],
    );
    assert_eq!(peeked.get("value_int"), Some(&Json::Int(99)), "{}", peeked);
    // A poke value that does not fit the signal's width is rejected.
    assert_eq!(
        error_kind(
            &mut client,
            vec![
                ("type", Json::str("session.poke")),
                ("session", Json::str(id.clone())),
                ("signal", Json::str("top.a")),
                ("value", Json::Int(256)),
            ],
        ),
        "protocol"
    );
    ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.destroy")),
            ("session", Json::str(id)),
        ],
    );
    shutdown(&mut client);
    running.join().unwrap();
}

/// The session lifecycle guards: the cap refuses the N+1th session, a
/// destroyed slot is reusable, and idle sessions expire on their own.
#[test]
fn session_cap_and_idle_timeout_bound_the_table() {
    let running = spawn(ServerConfig {
        session_cap: Some(1),
        session_idle_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(running.addr()).unwrap();
    let create_fields = || {
        vec![
            ("type", Json::str("session.create")),
            ("source", Json::str(BLINK)),
            ("top", Json::str("blink")),
            ("engine", Json::str("interpret")),
            ("until_ns", Json::Int(100)),
        ]
    };
    let first = ok_result(&mut client, create_fields());
    let first_id = session_id(&first);
    // The cap is 1: a second session is refused with its own error kind.
    assert_eq!(error_kind(&mut client, create_fields()), "session_limit");
    // Destroying frees the slot.
    ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.destroy")),
            ("session", Json::str(first_id)),
        ],
    );
    let second = ok_result(&mut client, create_fields());
    let second_id = session_id(&second);
    // An untouched session expires after the idle timeout, freeing the
    // slot without any client action.
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(
        error_kind(
            &mut client,
            vec![
                ("type", Json::str("session.step")),
                ("session", Json::str(second_id)),
            ],
        ),
        "unknown_session"
    );
    ok_result(&mut client, create_fields());
    shutdown(&mut client);
    running.join().unwrap();
}

/// The acceptance path for request deadlines: a `deadline_ms: 1` budget
/// on the RISC-V core — a simulation that takes far longer than a
/// millisecond — must come back as `deadline_exceeded` promptly, on both
/// engines, instead of hanging until the run completes.
#[test]
fn a_blown_deadline_fails_fast_on_both_engines() {
    let design = llhd_designs::all_designs()
        .into_iter()
        .find(|d| d.name == "RISC-V Core")
        .expect("benchmark design exists");
    let module = design.build().unwrap();
    let source = llhd::assembly::write_module(&module);
    // Far more cycles than a millisecond of wall clock can simulate.
    let until = design.sim_time_ns(200_000);

    let running = spawn(ServerConfig::default());
    let mut client = Client::connect(running.addr()).unwrap();
    for engine in ["interpret", "compile"] {
        let started = std::time::Instant::now();
        let response = client
            .request(&sim_request(vec![
                ("source", Json::str(source.clone())),
                ("top", Json::str(design.top)),
                ("engine", Json::str(engine)),
                ("until_ns", Json::uint(until)),
                ("deadline_ms", Json::Int(1)),
            ]))
            .unwrap();
        let elapsed = started.elapsed();
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{}", response);
        let error = response.get("error").unwrap();
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("deadline_exceeded"),
            "{}: {}",
            engine,
            response
        );
        assert_eq!(error.get("retryable"), Some(&Json::Bool(false)));
        // The partial progress is reported on the error.
        assert!(error.get("end_time_fs").is_some(), "{}", response);
        // "Fast" leaves slack for elaboration/compilation of the design
        // (not covered by the between-cycles deadline checks), but a
        // hang to completion would take far longer still.
        assert!(
            elapsed < Duration::from_secs(20),
            "{}: deadline_ms=1 took {:?}",
            engine,
            elapsed
        );
    }
    // The same design without a deadline still completes: the deadline
    // machinery adds no persistent state.
    let fine = client
        .request(&sim_request(vec![
            ("source", Json::str(source.clone())),
            ("top", Json::str(design.top)),
            ("engine", Json::str("interpret")),
            ("until_ns", Json::uint(design.sim_time_ns(20))),
        ]))
        .unwrap();
    assert_eq!(fine.get("ok"), Some(&Json::Bool(true)), "{}", fine);
    shutdown(&mut client);
    running.join().unwrap();
}

/// A blown `session.step` budget reports progress and leaves the session
/// alive and resumable — the abort lands between scheduler cycles, where
/// engine state is consistent.
#[test]
fn session_step_deadline_reports_progress_and_keeps_the_session() {
    let running = spawn(ServerConfig::default());
    let mut client = Client::connect(running.addr()).unwrap();
    let created = ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.create")),
            ("source", Json::str(COUNTER)),
            ("top", Json::str("counter")),
            ("engine", Json::str("interpret")),
            ("until_ns", Json::Int(1_000_000_000)),
        ],
    );
    let id = session_id(&created);
    let response = client
        .request(&Json::obj([
            ("type", Json::str("session.step")),
            ("session", Json::str(id.clone())),
            ("steps", Json::Int(500_000_000)),
            ("deadline_ms", Json::Int(20)),
        ]))
        .unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{}", response);
    let error = response.get("error").unwrap();
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("deadline_exceeded"),
        "{}",
        response
    );
    let taken = error
        .get("steps_taken")
        .and_then(Json::as_int)
        .unwrap_or_else(|| panic!("no steps_taken on {}", response));
    assert!(taken > 0, "some cycles must have run: {}", response);
    assert!(error.get("end_time_fs").is_some(), "{}", response);
    // The session survived the blown budget: stepping again works and
    // continues from where the abort left off.
    let resumed = ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.step")),
            ("session", Json::str(id.clone())),
            ("steps", Json::Int(5)),
        ],
    );
    assert_eq!(resumed.get("steps"), Some(&Json::Int(5)), "{}", resumed);
    ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.destroy")),
            ("session", Json::str(id)),
        ],
    );
    shutdown(&mut client);
    running.join().unwrap();
}

/// Admission control: a job group larger than the queue cap is shed as a
/// whole with a retryable `overloaded` error carrying `retry_after_ms`,
/// and the shed shows up in `stats.load`.
#[test]
fn overlarge_job_groups_are_shed_with_a_retry_hint() {
    let running = spawn(ServerConfig {
        queue_cap: Some(1),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(running.addr()).unwrap();
    let jobs: Vec<Json> = (0..3)
        .map(|_| {
            Json::obj([
                ("source", Json::str(BLINK)),
                ("top", Json::str("blink")),
                ("engine", Json::str("interpret")),
                ("until_ns", Json::Int(10)),
            ])
        })
        .collect();
    let response = client
        .request(&Json::obj([
            ("type", Json::str("batch")),
            ("jobs", Json::Arr(jobs)),
        ]))
        .unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{}", response);
    let error = response.get("error").unwrap();
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("overloaded"),
        "{}",
        response
    );
    assert_eq!(error.get("retryable"), Some(&Json::Bool(true)), "{}", response);
    let hint = error
        .get("retry_after_ms")
        .and_then(Json::as_int)
        .unwrap_or_else(|| panic!("no retry_after_ms on {}", response));
    assert!(hint > 0, "{}", response);
    // The shed is counted, and a job group that fits still runs.
    let stats = client.request(&Json::obj([("type", Json::str("stats"))])).unwrap();
    let shed = stats
        .get("result")
        .and_then(|r| r.get("load"))
        .and_then(|l| l.get("shed"))
        .and_then(Json::as_int)
        .unwrap();
    assert_eq!(shed, 1, "{}", stats);
    let single = client
        .request(&sim_request(vec![
            ("source", Json::str(BLINK)),
            ("top", Json::str("blink")),
            ("engine", Json::str("interpret")),
            ("until_ns", Json::Int(10)),
        ]))
        .unwrap();
    assert_eq!(single.get("ok"), Some(&Json::Bool(true)), "{}", single);
    shutdown(&mut client);
    running.join().unwrap();
}

/// The `retry_after_ms` hint scales with the queue overshoot — 10 ms per
/// excess job, clamped to [10, 1000] — so heavier overload backs clients
/// off longer while a marginal overrun retries quickly.
#[test]
fn retry_after_ms_scales_with_the_queue_overshoot() {
    let running = spawn(ServerConfig {
        queue_cap: Some(1),
        server_id: Some("overshoot-test".to_string()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(running.addr()).unwrap();
    let batch_of = |n: usize| {
        Json::obj([
            ("type", Json::str("batch")),
            (
                "jobs",
                Json::Arr(
                    (0..n)
                        .map(|_| {
                            Json::obj([
                                ("source", Json::str(BLINK)),
                                ("top", Json::str("blink")),
                                ("engine", Json::str("interpret")),
                                ("until_ns", Json::Int(10)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    };
    let hint_for = |client: &mut Client, jobs: usize| {
        let response = client.request(&batch_of(jobs)).unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{}", response);
        response
            .get("error")
            .and_then(|e| e.get("retry_after_ms"))
            .and_then(Json::as_int)
            .unwrap_or_else(|| panic!("no retry_after_ms on {}", response))
    };
    // With an empty queue and cap 1: a group of n overshoots by n - 1.
    assert_eq!(hint_for(&mut client, 3), 20);
    assert_eq!(hint_for(&mut client, 11), 100);
    // The hint is clamped at one second no matter how deep the overshoot.
    assert_eq!(hint_for(&mut client, 200), 1000);
    shutdown(&mut client);
    running.join().unwrap();
}

/// The additive identity fields: `ping` and `stats` both report the
/// configured `server_id` and a monotone `uptime_ms`, so a fleet router
/// can attribute per-worker numbers.
#[test]
fn ping_and_stats_report_server_id_and_uptime() {
    let running = spawn(ServerConfig {
        server_id: Some("w-test-1".to_string()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(running.addr()).unwrap();
    let pong = client.request(&Json::obj([("type", Json::str("ping"))])).unwrap();
    let result = pong.get("result").unwrap();
    assert_eq!(result.get("pong"), Some(&Json::Bool(true)), "{}", pong);
    assert_eq!(result.get("server_id").and_then(Json::as_str), Some("w-test-1"), "{}", pong);
    let uptime = result.get("uptime_ms").and_then(Json::as_int).unwrap();
    assert!(uptime >= 0, "{}", pong);
    let stats = client.request(&Json::obj([("type", Json::str("stats"))])).unwrap();
    let result = stats.get("result").unwrap();
    assert_eq!(result.get("server_id").and_then(Json::as_str), Some("w-test-1"), "{}", stats);
    assert!(result.get("uptime_ms").and_then(Json::as_int).unwrap() >= uptime, "{}", stats);
    shutdown(&mut client);
    running.join().unwrap();
}

/// An oversized request line (past the 64 MiB cap) is answered with a
/// `protocol` error and the connection survives to serve the next line.
#[test]
fn an_oversized_line_is_rejected_but_the_connection_survives() {
    use std::io::{BufRead, BufReader, Write};
    let running = spawn(ServerConfig::default());
    let mut raw = std::net::TcpStream::connect(running.addr()).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    // Stream just over 64 MiB without a newline: the reject must fire on
    // size alone, before any terminator arrives.
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..65 {
        raw.write_all(&chunk).unwrap();
    }
    raw.write_all(b"tail\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response = Json::parse(line.trim()).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{}", response);
    assert_eq!(
        response.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("protocol"),
        "{}",
        response
    );
    assert!(
        response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap()
            .contains("64 MiB"),
        "{}",
        response
    );
    // Same connection, next line: a normal request still round-trips
    // (the reader discarded the oversized line's tail, including the
    // bytes that arrived after the error was sent).
    writeln!(raw, r#"{{"type":"ping","id":7}}"#).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let pong = Json::parse(line.trim()).unwrap();
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)), "{}", pong);
    assert_eq!(pong.get("id"), Some(&Json::Int(7)), "{}", pong);
    let mut client = Client::connect(running.addr()).unwrap();
    shutdown(&mut client);
    running.join().unwrap();
}

/// The idle-expiry race: a command that lands around the moment the
/// session expires must get a clean answer either way (`ok` or
/// `unknown_session`), and a command that is *running* when the idle
/// clock would fire keeps the session alive — busy is not idle.
#[test]
fn idle_expiry_racing_an_in_flight_command_is_clean() {
    let running = spawn(ServerConfig {
        session_idle_timeout: Some(Duration::from_millis(120)),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(running.addr()).unwrap();
    let create_fields = || {
        vec![
            ("type", Json::str("session.create")),
            ("source", Json::str(COUNTER)),
            ("top", Json::str("counter")),
            ("engine", Json::str("interpret")),
            ("until_ns", Json::Int(1_000_000_000)),
        ]
    };
    // Busy is not idle: a step that runs well past the idle timeout must
    // not expire its own session mid-command, and the session is still
    // there afterwards (the command reset the idle clock).
    let busy = ok_result(&mut client, create_fields());
    let busy_id = session_id(&busy);
    let started = std::time::Instant::now();
    let mut stepped = Json::Bool(false);
    // Keep stepping until we have provably straddled the idle window.
    while started.elapsed() < Duration::from_millis(300) {
        stepped = ok_result(
            &mut client,
            vec![
                ("type", Json::str("session.step")),
                ("session", Json::str(busy_id.clone())),
                ("steps", Json::Int(50_000)),
            ],
        );
    }
    assert!(stepped.get("steps").is_some());
    let peeked = client
        .request(&Json::obj([
            ("type", Json::str("session.peek")),
            ("session", Json::str(busy_id.clone())),
            ("signal", Json::str("counter.out")),
        ]))
        .unwrap();
    assert_eq!(
        peeked.get("ok"),
        Some(&Json::Bool(true)),
        "an active session expired mid-use: {}",
        peeked
    );
    ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.destroy")),
            ("session", Json::str(busy_id)),
        ],
    );
    // The expiry edge: fire commands right around the idle deadline.
    // Whatever side of the race each lands on, the answer is well-formed
    // — ok, or a clean unknown_session — never a hang or a dead server.
    for wait_ms in [100u64, 115, 120, 125, 140] {
        let created = ok_result(&mut client, create_fields());
        let id = session_id(&created);
        std::thread::sleep(Duration::from_millis(wait_ms));
        let response = client
            .request(&Json::obj([
                ("type", Json::str("session.step")),
                ("session", Json::str(id.clone())),
                ("steps", Json::Int(1)),
            ]))
            .unwrap();
        match response.get("ok") {
            Some(&Json::Bool(true)) => {
                ok_result(
                    &mut client,
                    vec![
                        ("type", Json::str("session.destroy")),
                        ("session", Json::str(id)),
                    ],
                );
            }
            Some(&Json::Bool(false)) => {
                assert_eq!(
                    response.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
                    Some("unknown_session"),
                    "{}",
                    response
                );
            }
            other => panic!("malformed response ok={:?}: {}", other, response),
        }
    }
    shutdown(&mut client);
    running.join().unwrap();
}

/// A self-recursive function would overflow the host stack — an abort,
/// which no `catch_unwind` survives. Both engines instead fail the run
/// with the call-depth error, and the server answers the next request.
#[test]
fn unbounded_recursion_is_an_error_response_not_a_dead_server() {
    const RECURSIVE: &str = "
        func @f (i8 %x) i8 {
        entry:
            %r = call i8 @f (%x)
            ret i8 %r
        }
        proc @p () -> () {
        entry:
            %v = const i8 1
            %r = call i8 @f (%v)
            halt
        }";
    let running = spawn(ServerConfig::default());
    let mut client = Client::connect(running.addr()).unwrap();
    for engine in ["interpret", "compile"] {
        let response = client
            .request(&sim_request(vec![
                ("source", Json::str(RECURSIVE)),
                ("top", Json::str("p")),
                ("engine", Json::str(engine)),
                ("until_ns", Json::Int(10)),
            ]))
            .unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{}", response);
        let message = response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(
            message.contains("call depth limit (256) exceeded in @f"),
            "{}: {}",
            engine,
            response
        );
    }
    let pong = client.request(&Json::obj([("type", Json::str("ping"))])).unwrap();
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
    shutdown(&mut client);
    running.join().unwrap();
}

/// Commands to one session from two connections run one at a time, on
/// the threads that read them: 50 single steps from each of two
/// concurrent connections leave the session where 100 steps from one
/// connection leave a fresh session of the same design.
#[test]
fn concurrent_steps_to_one_session_run_one_at_a_time() {
    let running = spawn(ServerConfig::default());
    let addr = running.addr();
    fn create(client: &mut Client) -> String {
        session_id(&ok_result(
            client,
            vec![
                ("type", Json::str("session.create")),
                ("source", Json::str(COUNTER)),
                ("top", Json::str("counter")),
                ("engine", Json::str("interpret")),
                ("until_ns", Json::Int(1_000_000)),
            ],
        ))
    }
    fn step(client: &mut Client, id: &str) {
        let stepped = ok_result(
            client,
            vec![
                ("type", Json::str("session.step")),
                ("session", Json::str(id)),
                ("steps", Json::Int(1)),
            ],
        );
        assert_eq!(stepped.get("steps"), Some(&Json::Int(1)), "{}", stepped);
    }
    fn peek(client: &mut Client, id: &str) -> (Json, Json) {
        let peeked = ok_result(
            client,
            vec![
                ("type", Json::str("session.peek")),
                ("session", Json::str(id)),
                ("signal", Json::str("counter.out")),
            ],
        );
        let field = |name| peeked.get(name).cloned().unwrap();
        (field("time_fs"), field("value"))
    }
    let mut client = Client::connect(addr).unwrap();
    let shared = create(&mut client);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..50 {
                    step(&mut client, &shared);
                }
            });
        }
    });
    let fresh = create(&mut client);
    for _ in 0..100 {
        step(&mut client, &fresh);
    }
    let expected = peek(&mut client, &fresh);
    assert_ne!(expected.0, Json::Int(0), "100 steps did not advance time");
    assert_eq!(peek(&mut client, &shared), expected);
    shutdown(&mut client);
    running.join().unwrap();
}

/// A session left idle past the idle timeout no longer counts as open in
/// `stats`: the stats request itself sweeps it out of the table.
#[test]
fn an_idle_session_leaves_the_open_session_count() {
    let running = spawn(ServerConfig {
        session_idle_timeout: Some(Duration::from_millis(500)),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(running.addr()).unwrap();
    ok_result(
        &mut client,
        vec![
            ("type", Json::str("session.create")),
            ("source", Json::str(BLINK)),
            ("top", Json::str("blink")),
            ("engine", Json::str("interpret")),
            ("until_ns", Json::Int(100)),
        ],
    );
    let open_sessions = |client: &mut Client| {
        let stats = ok_result(client, vec![("type", Json::str("stats"))]);
        let load = stats.get("load").and_then(|l| l.get("open_sessions"));
        load.and_then(Json::as_int)
    };
    assert_eq!(open_sessions(&mut client), Some(1));
    std::thread::sleep(Duration::from_millis(1000));
    assert_eq!(open_sessions(&mut client), Some(0));
    shutdown(&mut client);
    running.join().unwrap();
}
